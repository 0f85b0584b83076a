package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the one place that knows what a log record looks like on
// disk. New records are always written in binary format 1 (layout in the
// package comment); legacy JSON records — everything written before
// format 1 existed — are still read, frame by frame, so an old state
// directory recovers and may carry binary frames after its JSON ones.
//
// Either way the committed placement and per-link contributions are
// stored verbatim — replay never re-runs the allocation DP, which is
// what makes recovery bit-identical even where the DP could tie-break
// differently.

// ErrUnsupportedFormat marks an intact frame whose format tag this binary
// does not know: a newer svcd wrote it. It is deliberately not ErrCorrupt
// — corruption is truncated away, whereas this frame holds acknowledged
// writes, so recovery must refuse the file and leave it untouched.
var ErrUnsupportedFormat = errors.New("wal: record format not supported by this version")

const (
	// tagBin1 is payload byte 0 of a format-1 record. A JSON object opens
	// with tagLegacy, which no binary format will ever use as its tag.
	tagBin1   = 0x01
	tagLegacy = '{'

	// opEpoch is the op byte of an epoch record; mutation op bytes are the
	// opCodes below.
	opEpoch = 0x40
)

// Mutation flags: which optional sections follow the fixed fields. A set
// flag promises a non-empty section, so the encoder writes every mutation
// one way only and empty slices come back as nil, the canonical form exported
// states are compared in.
const (
	flagHomog = 1 << iota
	flagHetero
	flagPlacement
	flagContribs
	flagOffline
	flagEps
	flagIdem

	knownFlags = flagIdem<<1 - 1
)

// opCodes and outcomeCodes are the on-disk bytes of format 1. They are
// spelled out rather than cast from core's constants so that reordering
// an iota in core cannot silently change the meaning of existing logs.
// Zero is "unknown" in both directions; outcome byte 0 is what every
// non-repair record carries.
var (
	opCodes = [...]byte{
		core.OpAlloc:          1,
		core.OpRelease:        2,
		core.OpFailMachine:    3,
		core.OpRestoreMachine: 4,
		core.OpFailLink:       5,
		core.OpRestoreLink:    6,
		core.OpSetOffline:     7,
		core.OpRepair:         8,
	}
	codeOps = [...]core.MutationOp{
		1: core.OpAlloc,
		2: core.OpRelease,
		3: core.OpFailMachine,
		4: core.OpRestoreMachine,
		5: core.OpFailLink,
		6: core.OpRestoreLink,
		7: core.OpSetOffline,
		8: core.OpRepair,
	}
	outcomeCodes = [...]byte{
		core.RepairNoop:     1,
		core.RepairMoved:    2,
		core.RepairDegraded: 3,
		core.RepairFailed:   4,
	}
	codeOutcomes = [...]core.RepairOutcome{
		1: core.RepairNoop,
		2: core.RepairMoved,
		3: core.RepairDegraded,
		4: core.RepairFailed,
	}
)

// Minimum encoded sizes, the divisors that bound a count read from a
// payload by the bytes actually left before anything is allocated.
const (
	minDemand  = 16 // two floats
	minEntry   = 3  // machine, count, VM count
	minContrib = 18 // link, det byte, two floats
	minVarint  = 1  // also one byte of an idempotency key
)

// encoder appends format-1 fields to b. Non-finite floats are noted, not
// written around: the caller discards the bytes and vetoes the commit,
// the same refusal the JSON encoder used to give.
type encoder struct {
	b         []byte
	nonFinite bool
}

func (e *encoder) uvarint(v int)            { e.b = binary.AppendUvarint(e.b, uint64(v)) }
func (e *encoder) varint(v int64)           { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) bytes(v string)           { e.uvarint(len(v)); e.b = append(e.b, v...) }
func (e *encoder) bool(v bool)              { e.b = append(e.b, b2u(v)) }
func (e *encoder) normal(mu, sigma float64) { e.float(mu); e.float(sigma) }

// The sections below are shared by records, intents and snapshot bodies.

// ints writes a counted list of signed integers.
func (e *encoder) ints(vs []int) {
	e.uvarint(len(vs))
	for _, v := range vs {
		e.varint(int64(v))
	}
}

// entries writes a counted list of placement entries, one machine's share
// each (no vms: homogeneous).
func (e *encoder) entries(es []core.PlacementEntry) {
	e.uvarint(len(es))
	for _, en := range es {
		e.varint(int64(en.Machine))
		e.varint(int64(en.Count))
		e.ints(en.VMs)
	}
}

// contribs writes a counted list of per-link contributions.
func (e *encoder) contribs(cs []core.Contribution) {
	e.uvarint(len(cs))
	for _, c := range cs {
		e.varint(int64(c.Link))
		e.bool(c.Det)
		e.normal(c.Mu, c.Sigma)
	}
}

func (e *encoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.nonFinite = true
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendMutation appends mut's format-1 payload to buf. On error buf's
// contents up to its original length are untouched and the returned
// slice must be discarded.
func appendMutation(buf []byte, mut core.Mutation) ([]byte, error) {
	if int(mut.Op) >= len(opCodes) || opCodes[mut.Op] == 0 {
		return nil, fmt.Errorf("wal: unknown mutation op %d", int(mut.Op))
	}
	var outcome byte
	if mut.Op == core.OpRepair {
		if mut.Outcome < 0 || int(mut.Outcome) >= len(outcomeCodes) {
			return nil, fmt.Errorf("wal: unknown repair outcome %d", int(mut.Outcome))
		}
		outcome = outcomeCodes[mut.Outcome]
	}
	var flags byte
	if mut.Homog != nil {
		flags |= flagHomog
	}
	if mut.Hetero != nil && len(mut.Hetero.Demands) > 0 {
		flags |= flagHetero
	}
	if mut.Placement != nil && len(mut.Placement.Entries) > 0 {
		flags |= flagPlacement
	}
	if len(mut.Contribs) > 0 {
		flags |= flagContribs
	}
	if mut.Offline {
		flags |= flagOffline
	}
	if mut.EffectiveEps != 0 {
		flags |= flagEps
	}
	if mut.IdemKey != "" {
		flags |= flagIdem
	}

	e := encoder{b: append(buf, tagBin1, opCodes[mut.Op], flags, outcome)}
	e.varint(int64(mut.Job))
	e.varint(int64(mut.Node))
	e.varint(int64(mut.Link))
	if flags&flagHomog != 0 {
		e.varint(int64(mut.Homog.N))
		e.normal(mut.Homog.Demand.Mu, mut.Homog.Demand.Sigma)
	}
	if flags&flagHetero != 0 {
		e.uvarint(len(mut.Hetero.Demands))
		for _, d := range mut.Hetero.Demands {
			e.normal(d.Mu, d.Sigma)
		}
	}
	if flags&flagPlacement != 0 {
		e.entries(mut.Placement.Entries)
	}
	if flags&flagContribs != 0 {
		e.contribs(mut.Contribs)
	}
	if flags&flagEps != 0 {
		e.float(mut.EffectiveEps)
	}
	if flags&flagIdem != 0 {
		e.bytes(mut.IdemKey)
	}
	if e.nonFinite {
		return nil, fmt.Errorf("wal: mutation %v of job %d carries a non-finite float", mut.Op, mut.Job)
	}
	return e.b, nil
}

// appendEpochFrame appends a whole framed epoch record to buf: "every
// mutation after this point was committed by the primary of this epoch".
// Epoch records never reach the manager — they carry no state — so the
// exported ManagerState stays bit-identical with or without them. A log
// with no epoch record is implicitly epoch 1.
func appendEpochFrame(buf []byte, epoch uint64) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(append(beginFrame(buf), tagBin1, opEpoch), epoch)
	endFrame(buf, start)
	return buf
}

// recordStore is the memory binary records are decoded into. A new store
// allocates each section, so the record owns it (DecodeRecord); replay
// reuses one for a walk, as Manager.Replay copies what it keeps.
type recordStore struct {
	homog    []core.Homogeneous
	hetero   []core.Heterogeneous
	place    []core.Placement
	demands  []stats.Normal
	entries  []core.PlacementEntry
	vms      []int
	contribs []core.Contribution
}

// cut returns the n elements past *slab's length, moving a full slab to one
// twice as large; they may hold an earlier record's values: set every field.
func cut[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, 2*cap(s)))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// decode is the single decode of a non-meta frame payload, into st. It
// never panics on malformed input: structural problems surface as
// ErrCorrupt, an unknown format tag as ErrUnsupportedFormat, and semantic
// validation against the manager's state happens later in Manager.Replay.
func (st *recordStore) decode(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	switch payload[0] {
	case tagBin1:
		*st = recordStore{homog: st.homog[:0], hetero: st.hetero[:0], place: st.place[:0],
			demands: st.demands[:0], entries: st.entries[:0], vms: st.vms[:0], contribs: st.contribs[:0]}
		return decodeBin1(payload[1:], st)
	case tagLegacy:
		return decodeLegacy(payload)
	default:
		return Record{}, fmt.Errorf("%w: record tag 0x%02x", ErrUnsupportedFormat, payload[0])
	}
}

// decoder consumes format-1 fields from b. The first malformed field
// sets err and empties b, so every later read returns zero and the
// caller checks err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("record ends early")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a varint that must fit the platform's int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

// length reads the element count of a list whose elements take at least
// minSize bytes each. It cannot exceed what the remaining bytes could
// hold, so a corrupt length never sizes an allocation.
func (d *decoder) length(minSize int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/minSize) {
		d.fail("length exceeds the record")
		return 0
	}
	return int(v)
}

// count is length for a flagged section, which is never empty: an empty
// one is spelled by clearing its flag.
func (d *decoder) count(minSize int) int {
	n := d.length(minSize)
	if n == 0 {
		d.fail("empty section behind a set flag")
	}
	return n
}

// end closes a payload: nothing may follow its last field, and the first
// thing that went wrong, if anything did, is the verdict.
func (d *decoder) end() error {
	if len(d.b) != 0 {
		d.fail("trailing bytes after the last field")
	}
	return d.err
}

// finish ends a record.
func (d *decoder) finish(rec Record) (Record, error) {
	if d.end() != nil {
		rec = Record{}
	}
	return rec, d.err
}

// check folds a request validator's verdict into the decode error.
func (d *decoder) check(err error) {
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		d.b = nil
	}
}

func (d *decoder) bool() bool {
	v := d.byte()
	if v > 1 {
		d.fail("bad boolean")
	}
	return v == 1
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("record ends early")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float")
		return 0
	}
	return v
}

func (d *decoder) normal() stats.Normal {
	return stats.Normal{Mu: d.float(), Sigma: d.float()}
}

// ints reads a counted list of signed integers into slab; empty is nil.
func (d *decoder) ints(slab *[]int) []int {
	n := d.length(minVarint)
	if n == 0 {
		return nil
	}
	vs := cut(slab, n)
	for i := range vs {
		vs[i] = d.int()
	}
	return vs
}

func (d *decoder) entry(vms *[]int) core.PlacementEntry {
	return core.PlacementEntry{Machine: topology.NodeID(d.int()), Count: d.int(), VMs: d.ints(vms)}
}

// contribs fills cs, sized by a count the caller has read.
func (d *decoder) contribs(cs []core.Contribution) []core.Contribution {
	for i := range cs {
		c := &cs[i]
		c.Link = topology.LinkID(d.int())
		c.Det = d.bool()
		c.Mu, c.Sigma = d.float(), d.float()
	}
	return cs
}

// key reads the n bytes of an idempotency key.
func (d *decoder) key(n int) string {
	k := string(d.b[:n])
	d.b = d.b[n:]
	return k
}

// decodeBin1 parses a format-1 payload past its tag byte into st.
func decodeBin1(b []byte, st *recordStore) (Record, error) {
	d := decoder{b: b}
	op := d.byte()
	if op == opEpoch {
		return d.finish(Record{Kind: KindEpoch, Epoch: d.uvarint()})
	}
	if int(op) >= len(codeOps) || codeOps[op] == 0 {
		d.fail("unknown op")
		return Record{}, d.err
	}
	flags, outcome := d.byte(), d.byte()
	if flags&^knownFlags != 0 {
		d.fail("unknown flag")
	}
	rec := Record{Kind: KindMutation}
	mut := &rec.Mutation
	mut.Op = codeOps[op]
	switch {
	case mut.Op != core.OpRepair:
		if outcome != 0 {
			d.fail("outcome on a non-repair record")
		}
	case int(outcome) >= len(codeOutcomes) || outcome == 0:
		d.fail("unknown repair outcome")
	default:
		mut.Outcome = codeOutcomes[outcome]
	}
	mut.Job = core.JobID(d.varint())
	mut.Node = topology.NodeID(d.int())
	mut.Link = topology.LinkID(d.int())
	mut.Offline = flags&flagOffline != 0
	if flags&flagHomog != 0 {
		mut.Homog = &cut(&st.homog, 1)[0]
		*mut.Homog = core.Homogeneous{N: d.int(), Demand: d.normal()}
		d.check(mut.Homog.Validate())
	}
	if flags&flagHetero != 0 {
		mut.Hetero = &cut(&st.hetero, 1)[0]
		mut.Hetero.Demands = cut(&st.demands, d.count(minDemand))
		for i := range mut.Hetero.Demands {
			mut.Hetero.Demands[i] = d.normal()
		}
		d.check(mut.Hetero.Validate())
	}
	if flags&flagPlacement != 0 {
		mut.Placement = &cut(&st.place, 1)[0]
		mut.Placement.Entries = cut(&st.entries, d.count(minEntry))
		for i := range mut.Placement.Entries {
			mut.Placement.Entries[i] = d.entry(&st.vms)
		}
	}
	if flags&flagContribs != 0 {
		mut.Contribs = d.contribs(cut(&st.contribs, d.count(minContrib)))
	}
	if flags&flagEps != 0 {
		if mut.EffectiveEps = d.float(); mut.EffectiveEps == 0 {
			d.fail("zero eps behind a set flag")
		}
	}
	if flags&flagIdem != 0 {
		mut.IdemKey = d.key(d.count(minVarint))
	}
	return d.finish(rec)
}

// record is the JSON payload of one legacy (pre-format-1) log record. It
// is no longer written; it survives as the legacy reader's target and as
// the shape svcwal renders every record in, binary ones included.
type record struct {
	Op        string                `json:"op"`
	Job       int64                 `json:"job,omitempty"`
	Homog     *core.HomogSpec       `json:"homog,omitempty"`
	Hetero    []stats.Normal        `json:"hetero,omitempty"`
	Placement []core.PlacementEntry `json:"placement,omitempty"`
	Contribs  []core.Contribution   `json:"contribs,omitempty"`
	Node      int                   `json:"node,omitempty"`
	Link      int                   `json:"link,omitempty"`
	Offline   bool                  `json:"offline,omitempty"`
	Outcome   string                `json:"outcome,omitempty"`
	Eps       float64               `json:"eps,omitempty"`
	IdemKey   string                `json:"idem_key,omitempty"`
	Epoch     uint64                `json:"epoch,omitempty"`
}

// epochOp is the legacy op name of an epoch record.
const epochOp = "epoch"

var opValues = map[string]core.MutationOp{
	"alloc":           core.OpAlloc,
	"release":         core.OpRelease,
	"fail_machine":    core.OpFailMachine,
	"restore_machine": core.OpRestoreMachine,
	"fail_link":       core.OpFailLink,
	"restore_link":    core.OpRestoreLink,
	"set_offline":     core.OpSetOffline,
	"repair":          core.OpRepair,
}

var outcomeValues = map[string]core.RepairOutcome{
	"noop":     core.RepairNoop,
	"moved":    core.RepairMoved,
	"degraded": core.RepairDegraded,
	"failed":   core.RepairFailed,
}

// decodeLegacy parses one legacy JSON payload: one reflective decode,
// whether it turns out to be an epoch marker or a mutation.
func decodeLegacy(payload []byte) (Record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if rec.Op == epochOp {
		return Record{Kind: KindEpoch, Epoch: rec.Epoch}, nil
	}
	op, ok := opValues[rec.Op]
	if !ok {
		return Record{}, fmt.Errorf("%w: unknown op %q", ErrCorrupt, rec.Op)
	}
	mut := core.Mutation{
		Op:           op,
		Job:          core.JobID(rec.Job),
		Contribs:     rec.Contribs,
		Node:         topology.NodeID(rec.Node),
		Link:         topology.LinkID(rec.Link),
		Offline:      rec.Offline,
		EffectiveEps: rec.Eps,
		IdemKey:      rec.IdemKey,
	}
	if rec.Homog != nil {
		req, err := rec.Homog.Request()
		if err != nil {
			return Record{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		mut.Homog = &req
	}
	if rec.Hetero != nil {
		req, err := core.NewHeterogeneous(rec.Hetero)
		if err != nil {
			return Record{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		mut.Hetero = &req
	}
	if rec.Placement != nil {
		mut.Placement = &core.Placement{Entries: rec.Placement}
	}
	if op == core.OpRepair {
		outcome, ok := outcomeValues[rec.Outcome]
		if !ok {
			return Record{}, fmt.Errorf("%w: unknown repair outcome %q", ErrCorrupt, rec.Outcome)
		}
		mut.Outcome = outcome
	}
	return Record{Kind: KindMutation, Mutation: mut}, nil
}
