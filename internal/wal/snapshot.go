package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// This file is the one place that knows what a snapshot looks like on
// disk: magic, the meta frame, and one body frame holding the whole
// ManagerState. New bodies are always written in binary format 1 (layout
// in the package comment), with record.go's field codec and in one
// canonical form — bindings in ascending key order, empty lists as a zero
// count — so equal states give equal bytes. A legacy JSON body, which is
// what every snapshot was before format 1, is still read.

// Job flags of a format-1 snapshot body: which optional fields the job
// carries. As in records, a set flag promises a non-empty section.
const (
	jobHomog = 1 << iota
	jobHetero
	jobDegraded

	knownJobFlags = jobDegraded<<1 - 1
)

// Minimum encoded sizes of the body's list elements, the divisors that
// bound each count by the bytes left (see record.go).
const (
	minLink    = 25 // three floats, stochastic count
	minJob     = 4  // id, flags, two list counts
	minBinding = 4  // key length, op, job, entry count
)

// counterFields spells the order the counters are stored in.
func counterFields(c *core.CounterState) [8]*uint64 {
	return [...]*uint64{
		&c.MachineFailures, &c.MachineRestores, &c.LinkFailures, &c.LinkRestores,
		&c.NoopRepairs, &c.MovedRepairs, &c.DegradedRepairs, &c.FailedRepairs,
	}
}

// appendSnapshot appends st's format-1 body to buf; on error the returned
// slice must be discarded.
func appendSnapshot(buf []byte, st *core.ManagerState) ([]byte, error) {
	e := encoder{b: append(buf, tagBin1)}
	e.varint(st.NextID)
	e.uvarint(len(st.Links))
	for _, l := range st.Links {
		e.float(l.Det)
		e.float(l.SumMu)
		e.float(l.SumVar)
		e.varint(int64(l.Stochastic))
	}
	e.ints(st.Used)
	e.uvarint(len(st.Jobs))
	for i := range st.Jobs {
		js := &st.Jobs[i]
		var flags byte
		if js.Homog != nil {
			flags |= jobHomog
		}
		if len(js.Hetero) > 0 {
			flags |= jobHetero
		}
		if js.DegradedEps != nil {
			flags |= jobDegraded
		}
		e.varint(js.ID)
		e.b = append(e.b, flags)
		if js.Homog != nil {
			e.varint(int64(js.Homog.N))
			e.normal(js.Homog.Mu, js.Homog.Sigma)
		}
		if flags&jobHetero != 0 {
			e.uvarint(len(js.Hetero))
			for _, d := range js.Hetero {
				e.normal(d.Mu, d.Sigma)
			}
		}
		e.entries(js.Placement)
		e.uvarint(0) // contributions are derived: the list is written empty
		if js.DegradedEps != nil {
			e.float(*js.DegradedEps)
		}
	}
	e.ints(st.MachinesDown)
	e.ints(st.LinksDown)
	counters := st.Counters
	for _, c := range counterFields(&counters) {
		e.b = binary.AppendUvarint(e.b, *c)
	}

	keys := make([]string, 0, len(st.Idem))
	for k := range st.Idem {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.uvarint(len(keys))
	for _, k := range keys {
		is := st.Idem[k]
		if int(is.Op) >= len(opCodes) || opCodes[is.Op] == 0 {
			return nil, fmt.Errorf("wal: idempotency key %q is bound to unknown op %d", k, int(is.Op))
		}
		e.bytes(k)
		e.b = append(e.b, opCodes[is.Op])
		e.varint(is.Job)
		e.entries(is.Placement)
	}
	if e.nonFinite {
		return nil, fmt.Errorf("wal: state carries a non-finite float")
	}
	return e.b, nil
}

// decodeSnapshotBody is the single decode of a snapshot's body frame.
// Like DecodeRecord it never panics and never returns a partial state: a
// malformed body is ErrCorrupt, an unknown tag ErrUnsupportedFormat.
// Whether the state fits the datacenter is NewManagerFromState's verdict.
func decodeSnapshotBody(payload []byte) (*core.ManagerState, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot body", ErrCorrupt)
	}
	switch payload[0] {
	case tagBin1:
		return decodeSnapshotBin1(payload[1:])
	case tagLegacy:
		var body struct {
			State *core.ManagerState `json:"state"`
		}
		if err := json.Unmarshal(payload, &body); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		if body.State == nil {
			return nil, fmt.Errorf("%w: snapshot has no state", ErrCorrupt)
		}
		return body.State, nil
	default:
		return nil, fmt.Errorf("%w: snapshot tag 0x%02x", ErrUnsupportedFormat, payload[0])
	}
}

// entrySlab is how many placement entries decodeSnapshotBin1 allocates at
// a time: the tens of thousands of one- and two-entry placements a
// snapshot's bindings carry are cut from shared slabs instead.
const entrySlab = 512

// snapDecoder is a decoder with the slab its placements are cut from.
type snapDecoder struct {
	decoder
	slab []core.PlacementEntry
}

func (d *snapDecoder) entries() []core.PlacementEntry {
	n := d.length(minEntry)
	if n == 0 {
		return nil
	}
	if n > len(d.slab) {
		d.slab = make([]core.PlacementEntry, max(n, min(entrySlab, len(d.b)/minEntry)))
	}
	es := d.slab[:n:n]
	d.slab = d.slab[n:]
	for i := range es {
		es[i] = d.entry(new([]int))
	}
	return es
}

// decodeSnapshotBin1 parses a format-1 body past its tag byte.
func decodeSnapshotBin1(b []byte) (*core.ManagerState, error) {
	d := snapDecoder{decoder: decoder{b: b}}
	st := &core.ManagerState{NextID: d.varint()}
	st.Links = make([]core.LinkRecord, d.length(minLink))
	for i := range st.Links {
		l := &st.Links[i]
		l.Det, l.SumMu, l.SumVar, l.Stochastic = d.float(), d.float(), d.float(), d.int()
	}
	st.Used = d.ints(new([]int))
	if n := d.length(minJob); n > 0 {
		st.Jobs = make([]core.JobState, n)
	}
	for i := range st.Jobs {
		js := &st.Jobs[i]
		js.ID = d.varint()
		flags := d.byte()
		if flags&^knownJobFlags != 0 {
			d.fail("unknown job flag")
		}
		if flags&jobHomog != 0 {
			js.Homog = &core.HomogSpec{N: d.int(), Mu: d.float(), Sigma: d.float()}
		}
		if flags&jobHetero != 0 {
			js.Hetero = make([]stats.Normal, d.count(minDemand))
			for k := range js.Hetero {
				js.Hetero[k] = d.normal()
			}
		}
		js.Placement = d.entries()
		d.skipContribs(d.length(minContrib))
		if flags&jobDegraded != 0 {
			eps := d.float()
			js.DegradedEps = &eps
		}
	}
	st.MachinesDown = d.ints(new([]int))
	st.LinksDown = d.ints(new([]int))
	for _, c := range counterFields(&st.Counters) {
		*c = d.uvarint()
	}

	if n := d.length(minBinding); n > 0 {
		st.Idem = make(map[string]core.IdemState, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.key(d.length(minVarint))
			if i > 0 && k <= prev {
				d.fail("bindings out of key order")
			}
			prev = k
			op := d.byte()
			if int(op) >= len(codeOps) || codeOps[op] == 0 {
				d.fail("unknown op")
				break
			}
			st.Idem[k] = core.IdemState{Op: codeOps[op], Job: d.varint(), Placement: d.entries()}
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// encodeSnapshot builds a whole snap-<gen>.snap image: magic, the meta
// frame, the body frame.
func encodeSnapshot(m meta, st *core.ManagerState) ([]byte, error) {
	metaPayload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := appendFrame([]byte(snapMagic), metaPayload)
	start := len(buf)
	if buf, err = appendSnapshot(beginFrame(buf), st); err != nil {
		return nil, err
	}
	if n := len(buf) - start - headerLen; n > maxRecord {
		return nil, fmt.Errorf("wal: snapshot body of %d bytes exceeds the %d-byte frame limit", n, maxRecord)
	}
	endFrame(buf, start)
	return buf, nil
}

// splitSnapshot verifies a snapshot image's framing and returns its two
// payloads undecoded.
func splitSnapshot(data []byte, name string) (metaPayload, body []byte, err error) {
	frames, _, scanErr := scanFrames(data, snapMagic)
	if len(frames) < 2 {
		if scanErr == nil {
			scanErr = fmt.Errorf("%w: snapshot has %d frames, want 2", ErrCorrupt, len(frames))
		}
		return nil, nil, fmt.Errorf("wal: snapshot %s: %w", name, scanErr)
	}
	return frames[0].Payload, frames[1].Payload, nil
}

// decodeSnapshot validates a snapshot image (from disk or the
// replication stream) against the generation and datacenter in want and
// returns the state it carries.
func decodeSnapshot(data []byte, want meta, name string) (*core.ManagerState, error) {
	metaPayload, body, err := splitSnapshot(data, name)
	if err != nil {
		return nil, err
	}
	if err := want.check(metaPayload, "snapshot"); err != nil {
		return nil, err
	}
	st, err := decodeSnapshotBody(body)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", name, err)
	}
	return st, nil
}

// snapshotFile is a snapshot image split into its payloads, framing
// verified and nothing else: svcwal knows no topology to hold the meta
// record against.
type snapshotFile struct {
	name       string
	size       int
	meta, body []byte
}

// formatName is how Inspect names a payload's encoding, from its tag.
func formatName(tag byte) string {
	if tag == tagLegacy {
		return "json"
	}
	return fmt.Sprintf("bin%d", tag)
}

// newestSnapshot reads the highest-generation snap-<gen>.snap in dir,
// nil when there is none.
func newestSnapshot(dir string) (*snapshotFile, error) {
	gen, err := newestGen(dir, true)
	if gen == 0 || err != nil {
		return nil, err
	}
	data, err := readIfExists(snapPath(dir, gen))
	if err != nil {
		return nil, err
	}
	f := &snapshotFile{name: filepath.Base(snapPath(dir, gen)), size: len(data)}
	f.meta, f.body, err = splitSnapshot(data, f.name)
	return f, err
}

// inspectSnapshot is Inspect's rendering of the newest snapshot, if there
// is one: the file name with its meta record, then a one-line summary.
func inspectSnapshot(w io.Writer, dir string) (found bool, err error) {
	f, err := newestSnapshot(dir)
	if f == nil || err != nil {
		return false, err
	}
	fmt.Fprintf(w, `{"file":%q,"meta":%s}`+"\n", f.name, f.meta)
	summary := fmt.Sprintf("%s: format %s, %d bytes", f.name, formatName(f.body[0]), f.size)
	if st, err := decodeSnapshotBody(f.body); err != nil {
		summary += fmt.Sprintf(", unreadable (%v)", err)
	} else {
		summary += fmt.Sprintf(", %d jobs, %d bindings, %d machines down, %d links down",
			len(st.Jobs), len(st.Idem), len(st.MachinesDown), len(st.LinksDown))
	}
	_, err = fmt.Fprintln(w, summary)
	return true, err
}

// WriteState writes the state held by dir's newest snapshot as the JSON
// document GET /v1/state serves — the legible form a binary snapshot
// file itself no longer is. Records logged after the snapshot are not
// applied; Inspect lists those. It reads only.
func WriteState(w io.Writer, dir string) error {
	f, err := newestSnapshot(dir)
	if err != nil {
		return err
	}
	if f == nil {
		return fmt.Errorf("wal: no snap-<gen>.snap in %s", dir)
	}
	st, err := decodeSnapshotBody(f.body)
	if err != nil {
		return fmt.Errorf("wal: snapshot %s: %w", f.name, err)
	}
	return json.NewEncoder(w).Encode(st)
}
