package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wal"
)

// WALTail is the journal tail seam behind GET /v1/wal — the signature of
// wal.Journal.Tail, which serves it, and of Client.WALTail, which fetches
// it: a resume cursor plus size and long-poll knobs in, one chunk out,
// and that chunk is the response body as it stands.
type WALTail = func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error)

// PromoteResponse reports the outcome of POST /v1/promote.
type PromoteResponse struct {
	Epoch      uint64 `json:"epoch"`
	LagRecords int    `json:"lag_records"`
	LagBytes   int64  `json:"lag_bytes"`
	Version    uint64 `json:"version"`
}

// FenceRequest is the body of POST /v1/fence: the epoch that supersedes
// this node's journal.
type FenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

// ReplicationStatus describes a node's place in the replication pair,
// reported under /v1/status.
type ReplicationStatus struct {
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	Gen        uint64 `json:"gen"`
	AppliedOff int64  `json:"applied_off,omitempty"`
	DurableOff int64  `json:"durable_off,omitempty"`
	LagBytes   int64  `json:"lag_bytes,omitempty"`
	LagRecords int    `json:"lag_records,omitempty"`
	Version    uint64 `json:"version"`
}

// maxTailWait caps the server-side long poll comfortably under the HTTP
// server's write timeout so an idle poll answers instead of timing out.
const maxTailWait = 20 * time.Second

func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	tail := s.wiring.Load().WALTail
	if tail == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this node does not serve the replication log"))
		return
	}
	var cur wal.Cursor
	var waitMs, maxBytes int
	var err error
	qs := r.URL.Query()
	if v := qs.Get("gen"); v != "" {
		if cur.Gen, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad gen: %w", err))
			return
		}
	}
	if v := qs.Get("off"); v != "" {
		if cur.Off, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad off: %w", err))
			return
		}
	}
	if v := qs.Get("wait_ms"); v != "" {
		if waitMs, err = strconv.Atoi(v); err != nil || waitMs < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad wait_ms"))
			return
		}
	}
	if v := qs.Get("max_bytes"); v != "" {
		if maxBytes, err = strconv.Atoi(v); err != nil || maxBytes < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad max_bytes"))
			return
		}
	}
	wait := min(time.Duration(waitMs)*time.Millisecond, maxTailWait)
	chunk, err := tail(r.Context(), cur, maxBytes, wait)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, chunk)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promote := s.wiring.Load().Promote
	if promote == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this node is not a standby"))
		return
	}
	resp, err := promote(r.Context())
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	fence := s.wiring.Load().Fence
	if fence == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this node has no journal to fence"))
		return
	}
	var req FenceRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	if err := fence(req.Epoch); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
