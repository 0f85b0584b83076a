package svcload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/stats"
)

// route returns the method and path of a request kind.
func route(kind Kind, job int64) (method, path string) {
	switch kind {
	case KindAdmit:
		return http.MethodPost, "/v1/allocations"
	case KindRelease:
		return http.MethodDelete, fmt.Sprintf("/v1/allocations/%d", job)
	case KindDryRun:
		return http.MethodPost, "/v1/dryrun"
	case KindStatus:
		return http.MethodGet, "/v1/status"
	default:
		return http.MethodGet, "/v1/links?limit=10"
	}
}

func body(kind Kind, req *httpapi.AllocationRequest) ([]byte, error) {
	if kind != KindAdmit && kind != KindDryRun {
		return nil, nil
	}
	return json.Marshal(req)
}

// admittedID extracts the job id from a 201 body.
func admittedID(status int, kind Kind, payload []byte) (int64, error) {
	if kind != KindAdmit || status != http.StatusCreated {
		return 0, nil
	}
	var resp struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return 0, fmt.Errorf("decode admit reply: %w", err)
	}
	return resp.ID, nil
}

// HTTPTarget sends requests to a running svcd over a fixed number of
// keep-alive connections. A caller writes its request and reads the reply
// on its own goroutine: net/http's client would hand both to two more
// goroutines per connection and cost about as much processor time as
// svcd spends answering, and the generator is not what is being measured.
type HTTPTarget struct {
	host string         // host:port
	idle chan *httpConn // one slot per connection; nil until first used
}

type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
}

// requestTimeout bounds one request, so a hung svcd fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// NewHTTPTarget returns a target that keeps at most conns connections
// to base, each dialed when first needed.
func NewHTTPTarget(base string, conns int) *HTTPTarget {
	t := &HTTPTarget{host: strings.TrimPrefix(base, "http://"), idle: make(chan *httpConn, conns)}
	for i := 0; i < conns; i++ {
		t.idle <- nil
	}
	return t
}

// Close closes the target's connections; no request may be in flight.
func (t *HTTPTarget) Close() {
	for i := 0; i < cap(t.idle); i++ {
		if hc := <-t.idle; hc != nil {
			hc.c.Close()
		}
		t.idle <- nil
	}
}

// Do implements Target.
func (t *HTTPTarget) Do(_ context.Context, kind Kind, req *httpapi.AllocationRequest, job int64, key string) Reply {
	payload, err := body(kind, req)
	if err != nil {
		return Reply{Err: err}
	}
	hc := <-t.idle
	rep, keep := t.roundTrip(hc, kind, payload, job, key)
	t.idle <- keep
	return rep
}

// roundTrip sends one request on hc, dialing first if there is no
// connection yet, and returns the connection to keep: nil after a
// transport failure or when svcd asked to close it.
func (t *HTTPTarget) roundTrip(hc *httpConn, kind Kind, payload []byte, job int64, key string) (Reply, *httpConn) {
	if hc == nil {
		c, err := net.Dial("tcp", t.host)
		if err != nil {
			return Reply{Err: err}, nil
		}
		hc = &httpConn{c: c, br: bufio.NewReader(c)}
	}
	method, path := route(kind, job)
	out := append(hc.out[:0], method...)
	out = append(append(append(out, ' '), path...), " HTTP/1.1\r\nHost: "...)
	out = append(append(out, t.host...), "\r\n"...)
	if payload != nil {
		out = append(out, "Content-Type: application/json\r\nContent-Length: "...)
		out = append(strconv.AppendInt(out, int64(len(payload)), 10), "\r\n"...)
	}
	if key != "" {
		out = append(append(append(out, httpapi.IdempotencyHeader...), ": "...), key...)
		out = append(out, "\r\n"...)
	}
	out = append(append(out, "\r\n"...), payload...)
	hc.out = out

	hc.c.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := hc.c.Write(out); err != nil {
		hc.c.Close()
		return Reply{Err: err}, nil
	}
	resp, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		hc.c.Close()
		return Reply{Err: err}, nil
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		hc.c.Close()
		return Reply{Err: err}, nil
	}
	if resp.Close {
		hc.c.Close()
		hc = nil
	}
	id, err := admittedID(resp.StatusCode, kind, got)
	return Reply{Status: resp.StatusCode, ID: id, ReqBytes: len(payload), RespBytes: len(got), Err: err}, hc
}

// HandlerTarget calls an http.Handler in process, with no network and
// no server goroutine: the caller's goroutine runs the handler.
type HandlerTarget struct{ Handler http.Handler }

// Do implements Target.
func (t HandlerTarget) Do(ctx context.Context, kind Kind, req *httpapi.AllocationRequest, job int64, key string) Reply {
	method, path := route(kind, job)
	payload, err := body(kind, req)
	if err != nil {
		return Reply{Err: err}
	}
	hreq := httptest.NewRequest(method, path, bytes.NewReader(payload)).WithContext(ctx)
	if key != "" {
		hreq.Header.Set(httpapi.IdempotencyHeader, key)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	t.Handler.ServeHTTP(rec, hreq)
	service := time.Since(start)
	id, err := admittedID(rec.Code, kind, rec.Body.Bytes())
	return Reply{Status: rec.Code, ID: id, ReqBytes: len(payload), RespBytes: rec.Body.Len(), Service: service, Err: err}
}

// ControllerTarget calls a controller directly, the way a program that
// embeds the library does. It answers with the status svcd would send.
type ControllerTarget struct{ Ctrl httpapi.Controller }

// Requests converts a wire request to the core form; exactly one result
// is set.
func Requests(req *httpapi.AllocationRequest) (*core.Homogeneous, *core.Heterogeneous, error) {
	if len(req.Demands) > 0 {
		demands := make([]stats.Normal, len(req.Demands))
		for i, d := range req.Demands {
			demands[i] = stats.Normal{Mu: d.Mu, Sigma: d.Sigma}
		}
		h, err := core.NewHeterogeneous(demands)
		return nil, &h, err
	}
	h, err := core.NewHomogeneous(req.N, stats.Normal{Mu: req.Mu, Sigma: req.Sigma})
	return &h, nil, err
}

// Do implements Target.
func (t ControllerTarget) Do(_ context.Context, kind Kind, req *httpapi.AllocationRequest, job int64, key string) Reply {
	switch kind {
	case KindAdmit, KindDryRun:
		homog, hetero, err := Requests(req)
		if err != nil {
			return Reply{Err: err}
		}
		if kind == KindDryRun {
			if homog != nil {
				t.Ctrl.CanAllocateHomog(*homog)
			} else {
				t.Ctrl.CanAllocateHetero(*hetero)
			}
			return Reply{Status: http.StatusOK}
		}
		var alloc *core.Allocation
		if homog != nil {
			alloc, err = t.Ctrl.AllocateHomog(*homog, core.WithIdemKey(key))
		} else {
			alloc, err = t.Ctrl.AllocateHetero(*hetero, core.WithIdemKey(key))
		}
		switch {
		case errors.Is(err, core.ErrNoCapacity):
			return Reply{Status: http.StatusConflict}
		case err != nil:
			return Reply{Err: err}
		}
		return Reply{Status: http.StatusCreated, ID: int64(alloc.ID)}
	case KindRelease:
		if err := t.Ctrl.Release(core.JobID(job), core.WithIdemKey(key)); err != nil {
			return Reply{Err: err}
		}
		return Reply{Status: http.StatusNoContent}
	case KindStatus:
		t.Ctrl.MaxOccupancy()
		return Reply{Status: http.StatusOK}
	default:
		t.Ctrl.LinkLoads()
		return Reply{Status: http.StatusOK}
	}
}
