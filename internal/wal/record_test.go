package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// opSamples is one representative mutation per op, between them covering
// every section the writer emits: homogeneous and heterogeneous requests,
// VM lists, keys, every repair shape. FuzzRecordRoundTrip's checked-in
// seeds (bin1-*) are these samples as the writer before derived
// contributions encoded them, three with a contribs section (sampleContribs),
// and the golden test pins the first.
func opSamples() []core.Mutation {
	return []core.Mutation{
		{Op: core.OpAlloc, Job: 1,
			Homog:     &core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 1.3, Sigma: 0.7}},
			Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 1}, {Machine: 6, Count: 3}}},
			IdemKey:   "tenant-a/42"},
		{Op: core.OpAlloc, Job: 2,
			Hetero:    &core.Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 2.7, Sigma: 0.5}, {Mu: 5e-324}}},
			Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 5, Count: 2, VMs: []int{1, 0}}, {Machine: 3, Count: 1, VMs: []int{2}}}}},
		{Op: core.OpRelease, Job: 2, IdemKey: "rel\x00\xff\xfe"},
		{Op: core.OpFailMachine, Node: 2, IdemKey: "fail"},
		{Op: core.OpRestoreMachine, Node: 2},
		{Op: core.OpFailLink, Link: 6},
		{Op: core.OpRestoreLink, Link: 6},
		{Op: core.OpSetOffline, Node: 3, Offline: true},
		{Op: core.OpSetOffline, Node: 3},
		{Op: core.OpRepair, Job: 1, Outcome: core.RepairFailed, EffectiveEps: 1},
		{Op: core.OpRepair, Job: 1, Outcome: core.RepairNoop, EffectiveEps: 0.05},
		{Op: core.OpRepair, Job: 3, Outcome: core.RepairDegraded, EffectiveEps: 0.2718281828459045,
			Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 1}}}},
	}
}

// sampleContribs are the contributions the bin1-* seeds of opSamples
// carry, by sample index: what the writer stored before contributions
// were derived.
var sampleContribs = map[int][]core.Contribution{
	0:  {{Link: 1, Mu: 1.2827142279626182, Sigma: 0.6897613374075252}, {Link: 6, Mu: 2, Det: true}},
	1:  {{Link: 5, Mu: -0.25, Sigma: 4.9e-320}},
	11: {{Link: 1, Mu: 2, Det: true}},
}

// withContribs is the record the writer before derived contributions made
// of mut: its format-1 payload with flag bit 3 set and the contribs
// section — uvarint n, n x (varint link, byte det, f64 mu, f64 sigma) —
// in its place after the placement, before eps and key.
func withContribs(t testing.TB, mut core.Mutation, cs []core.Contribution) []byte {
	t.Helper()
	payload := mustEncode(t, mut)
	tail := 0
	if mut.EffectiveEps != 0 {
		tail += 8
	}
	if mut.IdemKey != "" {
		tail += len(binary.AppendUvarint(nil, uint64(len(mut.IdemKey)))) + len(mut.IdemKey)
	}
	at := len(payload) - tail
	e := encoder{b: append([]byte(nil), payload[:at]...)}
	e.b[2] |= flagContribs
	e.uvarint(len(cs))
	for _, c := range cs {
		e.varint(int64(c.Link))
		e.b = append(e.b, map[bool]byte{true: 1}[c.Det])
		e.normal(c.Mu, c.Sigma)
	}
	return append(e.b, payload[at:]...)
}

// fuzzBytes reads a one-value fuzz corpus file: "go test fuzz v1\n[]byte(<quoted>)\n".
func fuzzBytes(data []byte) ([]byte, error) {
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	return []byte(s), err
}

// TestStoredContribsAreDiscarded: a record an older writer gave a
// contribs section — the checked-in bin1-* seeds, and one spliced here —
// decodes to the mutation without it, and re-encodes without it.
func TestStoredContribsAreDiscarded(t *testing.T) {
	for i, m := range opSamples() {
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRecordRoundTrip", fmt.Sprintf("bin1-%02d-%v", i, m.Op)))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := fuzzBytes(seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := withContribs(t, m, sampleContribs[i]); sampleContribs[i] != nil && !bytes.Equal(payload, want) {
			t.Fatalf("seed %d is not the sample with its contribs section:\n got %x\nwant %x", i, payload, want)
		}
		rec, err := DecodeRecord(payload)
		if err != nil || !reflect.DeepEqual(rec, Record{Mutation: m}) {
			t.Fatalf("seed %d decodes to (err %v)\n got %+v\nwant %+v", i, err, rec.Mutation, m)
		}
		if again := mustEncode(t, rec.Mutation); sampleContribs[i] != nil && again[2]&flagContribs != 0 {
			t.Fatalf("seed %d: the writer set flag bit 3", i)
		}
	}
}

// legacyRoundTrip is what the pre-format-1 JSON codec returned for m.
func legacyRoundTrip(m core.Mutation) (core.Mutation, error) {
	payload, err := legacyEncodeMutation(m)
	if err != nil {
		return core.Mutation{}, err
	}
	rec, err := DecodeRecord(payload)
	if err == nil && rec.Kind != KindMutation {
		err = fmt.Errorf("%w: a mutation came back as record kind %d", ErrCorrupt, rec.Kind)
	}
	return rec.Mutation, err
}

// mutationBuilder turns fuzz bytes into an arbitrary — not necessarily
// canonical, not necessarily valid — mutation: empty non-nil slices,
// negative ids, denormals, NaNs and key bytes that are not UTF-8 all
// come out of it.
type mutationBuilder struct{ b []byte }

func (g *mutationBuilder) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *mutationBuilder) int() int { return int(int8(g.byte())) }

func (g *mutationBuilder) float() float64 {
	switch mode := g.byte(); mode % 4 {
	case 0:
		return float64(g.byte()) / 8
	case 1:
		return 0
	case 2: // denormal: exponent bits clear
		return math.Float64frombits(uint64(g.byte())<<40 | uint64(g.byte()))
	default: // raw bits: negatives, infinities, NaNs
		var raw [8]byte
		for i := range raw {
			raw[i] = g.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
}

func (g *mutationBuilder) mutation() core.Mutation {
	m := core.Mutation{
		Op:   core.MutationOp(g.byte()%8 + 1),
		Job:  core.JobID(g.int()),
		Node: topology.NodeID(g.int()),
		Link: topology.NodeID(g.int()),
	}
	shape := g.byte()
	m.Offline = shape&1 != 0
	if m.Op == core.OpRepair {
		m.Outcome = core.RepairOutcome(g.byte() % 4)
	}
	if shape&2 != 0 {
		m.Homog = &core.Homogeneous{N: g.int(), Demand: stats.Normal{Mu: g.float(), Sigma: g.float()}}
	}
	if shape&4 != 0 {
		h := core.Heterogeneous{Demands: make([]stats.Normal, g.byte()%4)}
		for i := range h.Demands {
			h.Demands[i] = stats.Normal{Mu: g.float(), Sigma: g.float()}
		}
		m.Hetero = &h
	}
	if shape&8 != 0 {
		p := core.Placement{Entries: make([]core.PlacementEntry, g.byte()%4)}
		for i := range p.Entries {
			p.Entries[i] = core.PlacementEntry{Machine: topology.NodeID(g.int()), Count: g.int()}
			if n := g.byte() % 5; n < 4 { // 4: no VM list at all
				p.Entries[i].VMs = make([]int, n)
				for k := range p.Entries[i].VMs {
					p.Entries[i].VMs[k] = g.int()
				}
			}
		}
		m.Placement = &p
	}
	if shape&32 != 0 {
		m.EffectiveEps = g.float()
	}
	if shape&64 != 0 {
		m.IdemKey = string(g.b) // the rest, arbitrary bytes
	}
	return m
}

// checkRoundTrip is the codec's oracle: for any mutation m, the binary
// codec and the legacy JSON codec agree — on whether m can be written at
// all (non-finite floats are refused), on whether what was written reads
// back (request validation), and on the value that comes back, canonical
// forms included. The one licensed difference: JSON mangled key bytes
// that are not UTF-8, the binary codec returns them exactly.
func checkRoundTrip(t *testing.T, m core.Mutation) {
	t.Helper()
	key := m.IdemKey
	legacyIn := m
	if !utf8.ValidString(key) {
		legacyIn.IdemKey = ""
	}
	want, wantErr := legacyRoundTrip(legacyIn)
	want.IdemKey = key

	prefix := []byte("already-staged frames")
	enc, err := appendMutation(prefix[:len(prefix):len(prefix)], m)
	if err != nil {
		if wantErr == nil {
			t.Fatalf("binary encoder refused what the JSON codec round-tripped: %v\n%+v", err, m)
		}
		return
	}
	if !bytes.Equal(enc[:len(prefix)], prefix) {
		t.Fatal("encoding disturbed the bytes already in the buffer")
	}
	rec, err := DecodeRecord(enc[len(prefix):])
	got := rec.Mutation
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("codecs disagree on validity: binary %v, JSON %v\n%+v", err, wantErr, m)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v is not ErrCorrupt", err)
		}
		return
	}
	if !reflect.DeepEqual(rec, Record{Mutation: want}) {
		t.Fatalf("binary round trip differs from the JSON one:\n got %+v\nwant %+v", rec, want)
	}
	// One mutation, one encoding: re-encoding what was decoded gives the
	// same bytes, so logs repeat exactly per seed.
	again, err := appendMutation(nil, got)
	if err != nil || !bytes.Equal(again, enc[len(prefix):]) {
		t.Fatalf("re-encoding the decoded mutation changed the bytes (err %v)", err)
	}
}

// FuzzRecordRoundTrip: data is read as a record when it is one (so the
// corpus can hold real frames, binary and legacy) and fed to the
// mutation builder otherwise; either way the result goes through
// checkRoundTrip. A mutation that came out of the decoder is canonical,
// so for it the round trip must also be the identity.
func FuzzRecordRoundTrip(f *testing.F) {
	// testdata/fuzz/FuzzRecordRoundTrip holds the record seeds: every
	// opSamples mutation in format 1 and every record of the legacy-v1
	// fixture. This one is a seed for the builder path.
	f.Add([]byte{7, 3, 0xff, 0x80, 0xff, 2, 3, 3, 1, 2, 3, 4, 5, 6, 7, 0xf8, 0x7f, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil || rec.Kind != KindMutation {
			g := mutationBuilder{b: data}
			checkRoundTrip(t, g.mutation())
			return
		}
		m := rec.Mutation
		checkRoundTrip(t, m)
		enc, err := appendMutation(nil, m)
		if err != nil {
			t.Fatalf("decoded mutation does not re-encode: %v", err)
		}
		if got, err := DecodeRecord(enc); err != nil || !reflect.DeepEqual(got, Record{Mutation: m}) {
			t.Fatalf("round trip is not the identity (err %v):\n got %+v\nwant %+v", err, got, m)
		}
	})
}

// TestRecordRoundTripSamples runs the oracle over every op sample, so
// plain `go test` covers what the fuzz corpus seeds.
func TestRecordRoundTripSamples(t *testing.T) {
	for _, m := range opSamples() {
		checkRoundTrip(t, m)
		enc, err := appendMutation(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeRecord(enc); err != nil || !reflect.DeepEqual(got, Record{Mutation: m}) {
			t.Fatalf("%v: round trip is not the identity (err %v):\n got %+v\nwant %+v", m.Op, err, got, m)
		}
	}
}

// TestRecordCanonicalForms: what `omitempty` used to drop still comes
// back as nil, never as an empty slice — restart, promotion and svcbench
// all reflect.DeepEqual exported states.
func TestRecordCanonicalForms(t *testing.T) {
	m := core.Mutation{Op: core.OpAlloc, Job: 9,
		Homog:     &core.Homogeneous{N: 1, Demand: stats.Normal{Mu: 1}},
		Hetero:    &core.Heterogeneous{Demands: []stats.Normal{}},
		Placement: &core.Placement{Entries: []core.PlacementEntry{}},
		Outcome:   core.RepairMoved, // meaningless on an alloc: not journaled
	}
	checkRoundTrip(t, m)
	enc, err := appendMutation(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(enc)
	if err != nil || rec.Kind != KindMutation {
		t.Fatalf("decode: kind %d, err %v", rec.Kind, err)
	}
	got := rec.Mutation
	if got.Hetero != nil || got.Placement != nil || got.Outcome != 0 {
		t.Fatalf("empty sections did not decode to nil: %+v", got)
	}
	m.Placement = &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 1, VMs: []int{}}}}
	checkRoundTrip(t, m)
	enc, _ = appendMutation(nil, m)
	rec, _ = DecodeRecord(enc)
	if got = rec.Mutation; got.Placement == nil || got.Placement.Entries[0].VMs != nil {
		t.Fatalf("empty VM list did not decode to nil: %+v", got.Placement)
	}
}

// TestFormat1Golden pins the bytes of format 1 against the layout table
// in the package comment. A round trip cannot see an encoder and decoder
// that are wrong in the same way, or a format that drifted; this can.
func TestFormat1Golden(t *testing.T) {
	f64 := func(v float64) []byte {
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	alloc := opSamples()[0]
	want := cat(
		[]byte{0x01, 1, flagHomog | flagPlacement | flagIdem, 0}, // tag, op, flags, outcome
		[]byte{2, 0, 0},               // job 1 (zigzag), node 0, link 0
		[]byte{8}, f64(1.3), f64(0.7), // homog: N 4, mu, sigma
		[]byte{2, 4, 2, 0, 12, 6, 0}, // placement: 2 entries (machine, count, no VMs)
		[]byte{11}, []byte("tenant-a/42"),
	)
	got, err := appendMutation(nil, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("alloc record drifted from format 1:\n got %x\nwant %x", got, want)
	}
	// The same record as an older writer stored it: bit 3 and a contribs
	// section, read past and discarded.
	stored := cat(
		[]byte{0x01, 1, flagHomog | flagPlacement | flagContribs | flagIdem, 0},
		[]byte{2, 0, 0},
		[]byte{8}, f64(1.3), f64(0.7),
		[]byte{2, 4, 2, 0, 12, 6, 0},
		[]byte{2}, // 2 contributions: link, det, mu, sigma
		[]byte{2, 0}, f64(1.2827142279626182), f64(0.6897613374075252),
		[]byte{12, 1}, f64(2), f64(0),
		[]byte{11}, []byte("tenant-a/42"),
	)
	if rec, err := DecodeRecord(stored); err != nil || !reflect.DeepEqual(rec, Record{Mutation: alloc}) {
		t.Fatalf("a stored contribs section is not discarded (err %v): %+v", err, rec.Mutation)
	}

	hetero := core.Mutation{Op: core.OpRepair, Job: -3, Node: 5, Link: 300, Offline: true,
		Outcome: core.RepairMoved, EffectiveEps: 0.05,
		Hetero:    &core.Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}}},
		Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 5, Count: 1, VMs: []int{0}}}}}
	want = cat(
		[]byte{0x01, 8, flagHetero | flagPlacement | flagOffline | flagEps, 2},
		[]byte{5, 10, 0xd8, 0x04}, // job -3, node 5, link 300
		[]byte{1}, f64(3), f64(1),
		[]byte{1, 10, 2, 1, 0}, // 1 entry: machine 5, count 1, 1 VM: index 0
		f64(0.05),
	)
	if got, err = appendMutation(nil, hetero); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("repair record drifted from format 1 (err %v):\n got %x\nwant %x", err, got, want)
	}

	if got := appendEpochFrame(nil, 300)[headerLen:]; !bytes.Equal(got, []byte{0x01, 0x40, 0xac, 0x02}) {
		t.Fatalf("epoch record drifted from format 1: %x", got)
	}
	// The legacy tag can never collide with a binary one.
	if tagLegacy != 0x7b || tagBin1 == tagLegacy {
		t.Fatal("format tags collide")
	}
}

// TestEncoderRefusesNonFinite: json.Marshal refused NaN and ±Inf, which
// vetoed the commit; the binary encoder must refuse them too — and a
// refused mutation must leave no bytes behind in the group-commit batch.
func TestEncoderRefusesNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		for name, m := range map[string]core.Mutation{
			"homog mu":     {Op: core.OpAlloc, Homog: &core.Homogeneous{N: 1, Demand: stats.Normal{Mu: v}}},
			"hetero sigma": {Op: core.OpAlloc, Hetero: &core.Heterogeneous{Demands: []stats.Normal{{Sigma: v}}}},
			"eps":          {Op: core.OpRepair, EffectiveEps: v},
		} {
			if _, err := appendMutation(nil, m); err == nil {
				t.Errorf("%s = %v: encoded", name, v)
			}
			if _, err := legacyEncodeMutation(m); err == nil {
				t.Errorf("%s = %v: the JSON encoder accepted it, so this is not a kept veto", name, v)
			}
		}
	}

	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	if _, err := m.AllocateHomog(homog(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	nan := core.Mutation{Op: core.OpRepair, Job: 1, Outcome: core.RepairDegraded, EffectiveEps: math.NaN()}
	if err := j.Commit(nan); err == nil {
		t.Fatal("journal committed a NaN")
	}
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatalf("allocate after the vetoed commit: %v", err)
	}
	want := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Fatal("the vetoed commit disturbed bytes already in the log")
	}
	if frames, _, err := scanFrames(after, walMagic); err != nil || len(frames) != 3 {
		t.Fatalf("log holds %d frames (err %v), want meta + 2 records", len(frames), err)
	}
	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if !reflect.DeepEqual(m2.ExportState(), want) {
		t.Fatal("recovery after a vetoed commit differs from the live state")
	}
}

// TestDecoderRejectsMalformed: every structural defect of a known-tag
// record is ErrCorrupt — never a panic, never ErrUnsupportedFormat.
func TestDecoderRejectsMalformed(t *testing.T) {
	good, err := appendMutation(nil, opSamples()[1])
	if err != nil {
		t.Fatal(err)
	}
	nanEps := append([]byte{tagBin1, 8, flagEps, 1, 0, 0, 0}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...)
	cases := map[string][]byte{
		"empty":               {},
		"tag only":            {tagBin1},
		"unknown op":          {tagBin1, 9, 0, 0, 0, 0, 0},
		"op zero":             {tagBin1, 0, 0, 0, 0, 0, 0},
		"unknown flag":        {tagBin1, 2, 0x80, 0, 0, 0, 0},
		"outcome on release":  {tagBin1, 2, 0, 1, 0, 0, 0},
		"repair sans outcome": {tagBin1, 8, 0, 0, 0, 0, 0},
		"repair outcome 5":    {tagBin1, 8, 0, 5, 0, 0, 0},
		"empty contribs":      {tagBin1, 1, flagContribs, 0, 0, 0, 0, 0},
		"empty key":           {tagBin1, 2, flagIdem, 0, 0, 0, 0, 0},
		"key past the end":    {tagBin1, 2, flagIdem, 0, 0, 0, 0, 9, 'k'},
		"homog N zero":        append([]byte{tagBin1, 1, flagHomog, 0, 0, 0, 0, 0}, make([]byte, 16)...),
		"zero eps":            append([]byte{tagBin1, 8, flagEps, 1, 0, 0, 0}, make([]byte, 8)...),
		"NaN eps":             nanEps,
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"epoch trailing":      {tagBin1, opEpoch, 3, 0},
		"epoch torn":          {tagBin1, opEpoch},
		"overlong varint":     {tagBin1, 2, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0},
	}
	for cut := 1; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := DecodeRecord(good); err != nil {
		t.Fatalf("the untouched record must decode: %v", err)
	}
}

// hugeCount is a 20-byte alloc record that claims 2^62 contributions.
func hugeCount() []byte {
	rec := []byte{tagBin1, 1, flagContribs, 0, 0, 0, 0}
	rec = binary.AppendUvarint(rec, 1<<62)
	return append(rec, make([]byte, 20-len(rec))...)
}

// TestDecoderBoundsAllocation: a length field is checked against the
// bytes that are left before it sizes anything, so a corrupt count
// cannot make the decoder allocate more than the payload's own size.
func TestDecoderBoundsAllocation(t *testing.T) {
	payloads := map[string][]byte{"contribs": hugeCount()}
	for name, sect := range map[string]byte{"hetero": flagHetero, "placement": flagPlacement, "key": flagIdem} {
		p := hugeCount()
		p[2] = sect
		payloads[name] = p
	}
	vms := []byte{tagBin1, 1, flagPlacement, 0, 0, 0, 0, 1, 2, 1}
	payloads["vms"] = append(binary.AppendUvarint(vms, 1<<62), make([]byte, 4)...)

	for name, payload := range payloads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRecord(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		// The error value itself is the only thing worth allocating.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1024 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), grew)
		}
	}
}

// writeLog builds a log image: magic, the test datacenter's gen-1 meta
// frame, then the given payloads.
func writeLog(t testing.TB, dir string, payloads ...[]byte) string {
	t.Helper()
	j := &stateDir{dir: dir, noSync: true}
	topo := testTopo(t)
	f, _, err := j.createWAL(meta{Gen: 1, Eps: testEps, Nodes: topo.Len(), Slots: topo.TotalSlots()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return walPath(dir, 1)
}

func mustEncode(t testing.TB, m core.Mutation) []byte {
	t.Helper()
	payload, err := appendMutation(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestRecoverRefusesNewerFormat: an intact frame with a tag this binary
// does not know was written — and acknowledged — by a newer svcd.
// Recovery must fail with ErrUnsupportedFormat and leave the file byte
// for byte alone; truncating there, as for corruption, would discard
// acknowledged writes.
func TestRecoverRefusesNewerFormat(t *testing.T) {
	alloc := core.Mutation{Op: core.OpAlloc, Job: 1,
		Homog:     &core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}},
		Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 2}}}}
	newer := []byte{0x02, 1, 2, 3, 4}
	release := core.Mutation{Op: core.OpRelease, Job: 1}

	refused := func(t *testing.T, dir, path string) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Recover(dir, testTopo(t), testEps, nil, WithNoSync())
		if !errors.Is(err, ErrUnsupportedFormat) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Recover: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("recovery changed a log it refused: %d bytes -> %d", len(before), len(after))
		}
	}

	t.Run("current generation", func(t *testing.T) {
		dir := t.TempDir()
		refused(t, dir, writeLog(t, dir, mustEncode(t, alloc), newer, mustEncode(t, release)))
	})
	t.Run("torn tail behind it", func(t *testing.T) {
		dir := t.TempDir()
		path := writeLog(t, dir, mustEncode(t, alloc), newer)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{9, 0, 0}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		refused(t, dir, path)
	})
	t.Run("orphaned rotation's predecessor", func(t *testing.T) {
		// wal-2.log without snap-2.snap sends recovery through
		// recoverPrevious, which must refuse generation 1's log too.
		dir := t.TempDir()
		path := writeLog(t, dir, mustEncode(t, alloc), newer)
		j := &stateDir{dir: dir, noSync: true}
		topo := testTopo(t)
		f, _, err := j.createWAL(meta{Gen: 2, Eps: testEps, Nodes: topo.Len(), Slots: topo.TotalSlots()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		refused(t, dir, path)
	})
	t.Run("intent log", func(t *testing.T) {
		// A strict-mode router's intents.log behind its header: refused
		// whatever its records say, and left alone.
		dir := t.TempDir()
		path := filepath.Join(dir, "intents.log")
		data := appendFrame(appendFrame([]byte("SVCINT1\n"), mustEncode(t, alloc)), newer)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckNoIntents(dir); !errors.Is(err, ErrUnsupportedFormat) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("CheckNoIntents: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(data, after) {
			t.Fatal("a refused intents.log was modified")
		}
	})
}

// TestRecoverTruncatesMalformedKnownFormat: a frame whose tag this
// binary does know but whose body is malformed keeps the old contract —
// replay stops there and the log is truncated, exactly as for a failed
// checksum.
func TestRecoverTruncatesMalformedKnownFormat(t *testing.T) {
	alloc := core.Mutation{Op: core.OpAlloc, Job: 1,
		Homog:     &core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}},
		Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 2}}}}
	for name, bad := range map[string][]byte{
		"binary":  {tagBin1, 1, flagContribs, 0, 0, 0, 0, 0},
		"legacy":  []byte(`{"op":"alloc","job":"not a number"}`),
		"refused": mustEncode(t, core.Mutation{Op: core.OpRelease, Job: 99}), // decodes; the manager refuses it
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeLog(t, dir, mustEncode(t, alloc), bad, mustEncode(t, core.Mutation{Op: core.OpRelease, Job: 1}))
			m, j, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer j.Close()
			if m.Running() != 1 || j.Appended() != 1 {
				t.Fatalf("recovered %d jobs from %d records, want the one record before the bad frame", m.Running(), j.Appended())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frames, clean, err := scanFrames(data, walMagic)
			if err != nil || clean != len(data) || len(frames) != 2 {
				t.Fatalf("log not truncated at the bad frame: %d frames, clean %d of %d, err %v", len(frames), clean, len(data), err)
			}
		})
	}
}

// TestReplayKeepsNoDecodeStorage: replay decodes every record of a walk
// into one recordStore, so no job, request, placement or binding the
// manager holds may share memory with it. One log carries every section —
// homogeneous and heterogeneous admissions with VM lists, a contribs
// section an older writer stored, repairs ending moved, degraded and failed, keyed
// admissions and a keyed release, an epoch record — and is walked twice:
// by replay itself, and by hand with the store spoiled after every record,
// whose state must be, record by record, the one records decoded into
// memory of their own give.
func TestReplayKeepsNoDecodeStorage(t *testing.T) {
	entries := func(es ...core.PlacementEntry) *core.Placement { return &core.Placement{Entries: es} }
	muts := []core.Mutation{
		{Op: core.OpAlloc, Job: 1, Homog: &core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 1.3, Sigma: 0.7}},
			Placement: entries(core.PlacementEntry{Machine: 2, Count: 1}, core.PlacementEntry{Machine: 6, Count: 3}),
			IdemKey:   "tenant-a/42"},
		{Op: core.OpAlloc, Job: 2, Hetero: &core.Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 2.7, Sigma: 0.5}, {Mu: 1}}},
			Placement: entries(core.PlacementEntry{Machine: 5, Count: 2, VMs: []int{1, 0}}, core.PlacementEntry{Machine: 3, Count: 1, VMs: []int{2}})},
		{Op: core.OpRepair, Job: 1, Outcome: core.RepairMoved, EffectiveEps: 0.05,
			Placement: entries(core.PlacementEntry{Machine: 2, Count: 2}, core.PlacementEntry{Machine: 3, Count: 2})},
		{Op: core.OpRepair, Job: 2, Outcome: core.RepairDegraded, EffectiveEps: 0.2718281828459045,
			Placement: entries(core.PlacementEntry{Machine: 6, Count: 2, VMs: []int{0, 1}}, core.PlacementEntry{Machine: 5, Count: 1, VMs: []int{2}})},
		{Op: core.OpAlloc, Job: 3, Homog: &core.Homogeneous{N: 1, Demand: stats.Normal{Mu: 50}},
			Placement: entries(core.PlacementEntry{Machine: 5, Count: 1}), IdemKey: "k3"},
		{Op: core.OpRepair, Job: 3, Outcome: core.RepairFailed, EffectiveEps: 1},
		{Op: core.OpRelease, Job: 1, IdemKey: "rel-1"},
		{Op: core.OpAlloc, Job: 4, Homog: &core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 2, Sigma: 0.8}},
			Placement: entries(core.PlacementEntry{Machine: 2, Count: 2})},
	}
	log := []byte(walMagic)
	for i, mut := range muts {
		if i == 2 {
			log = appendEpochFrame(log, 2)
		}
		payload := mustEncode(t, mut)
		if i == 1 { // as an older writer stored it: the section is read past
			payload = withContribs(t, mut, []core.Contribution{{Link: 4, Mu: 2, Sigma: 1}, {Link: 1, Mu: 1, Sigma: 0.5}})
		}
		log = appendFrame(log, payload)
	}
	newManager := func() *core.Manager {
		m, err := core.NewManager(testTopo(t), testEps)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := newManager()
	if applied, end, err := replay(m, log, magicLen, func(uint64) {}); err != nil || applied != len(muts) || end != len(log) {
		t.Fatalf("replay applied %d of %d records, stopped at %d of %d: %v", applied, len(muts), end, len(log), err)
	}
	ref, spoiled := newManager(), newManager()
	var st recordStore
	for off := magicLen; off < len(log); {
		payload, next, err := nextFrame(log, off)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st.decode(payload)
		own, ownErr := DecodeRecord(payload)
		if err != nil || ownErr != nil {
			t.Fatalf("decode at %d: %v, %v", off, err, ownErr)
		}
		if rec.Kind == KindMutation {
			if err := spoiled.Replay(rec.Mutation); err != nil {
				t.Fatalf("replay at %d: %v", off, err)
			}
			if err := ref.Replay(own.Mutation); err != nil {
				t.Fatal(err)
			}
		}
		spoil(&st)
		if !spoiled.ExportState().Equal(ref.ExportState()) {
			t.Fatalf("the state after the record at %d changed when the decode storage was overwritten", off)
		}
		off = next
	}
	if !m.ExportState().Equal(ref.ExportState()) {
		t.Fatal("replay's state differs from the records decoded one by one")
	}
}

// spoil overwrites every element a store could hand out again.
func spoil(st *recordStore) {
	fill(st.homog, core.Homogeneous{N: -1, Demand: stats.Normal{Mu: -1, Sigma: -1}})
	fill(st.hetero, core.Heterogeneous{})
	fill(st.place, core.Placement{})
	fill(st.demands, stats.Normal{Mu: -1, Sigma: -1})
	fill(st.entries, core.PlacementEntry{Machine: -1, Count: -1, VMs: []int{-1}})
	fill(st.vms, -1)
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestCodecAllocs is the allocation tripwire: encoding into a buffer with
// room allocates nothing — it runs under the manager's lock on every
// commit — and decoding allocates once per pointer, slice or string field
// the mutation actually has, never per element; into a store that has
// grown, nothing but a key. Recovery allocates at most twice per record.
func TestCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 4096)
	var reused recordStore
	for _, m := range opSamples() {
		m := m
		if n := testing.AllocsPerRun(100, func() {
			if _, err := appendMutation(buf, m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: encode allocates %v times per record, want 0", m.Op, n)
		}
		fields := 0
		if m.Homog != nil {
			fields++
		}
		if m.Hetero != nil {
			fields += 2 // the request and its demands
		}
		if m.Placement != nil {
			fields += 2 // the placement and its entries...
			for _, pe := range m.Placement.Entries {
				if pe.VMs != nil {
					fields++ // ...and a VM list per heterogeneous entry
				}
			}
		}
		if m.IdemKey != "" {
			fields++
		}
		payload := mustEncode(t, m)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRecord(payload); err != nil {
				t.Fatal(err)
			}
		}); int(n) > fields {
			t.Errorf("%v: decode allocates %v times, want at most %d (one per field)", m.Op, n, fields)
		}
		keys := 0
		if m.IdemKey != "" {
			keys = 1
		}
		if n := testing.AllocsPerRun(100, func() { // the first run grows the store
			if _, err := reused.decode(payload); err != nil {
				t.Fatal(err)
			}
		}); int(n) > keys {
			t.Errorf("%v: decode into a grown store allocates %v times, want at most %d (the key)", m.Op, n, keys)
		}
	}

	// Recovery of BenchmarkRecover's catalogue churn on its datacenter,
	// half full: 3.9 allocations per record before replay reused its
	// decode storage and validation its scratch.
	cfg := topology.PaperConfig()
	cfg.Aggs, cfg.ToRsPerAgg = 2, 4
	topo, err := topology.NewThreeTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, j, err := Recover(dir, topo, testEps, nil, WithNoSync(), WithSnapshotEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	var live []core.JobID
	for i := 0; j.Appended() < 4000; i++ {
		a, err := m.AllocateHomog(homog(2<<(i%4), []float64{100, 300}[i/4%2], []float64{40, 100}[i/4%2]))
		if err != nil {
			t.Fatal(err)
		}
		if live = append(live, a.ID); m.Running()*8 >= topo.TotalSlots()/2 {
			if err := m.Release(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	records := j.Appended()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		_, j, err := Recover(dir, topo, testEps, nil, WithNoSync())
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
	}) / float64(records); n > 2.0 {
		t.Errorf("recovery allocates %.2f times per record, want at most 2", n)
	}

	// A snapshot's bindings: encoding allocates only the key slice it
	// sorts, and decoding one string per key — the map is sized once and
	// the placements are cut from slabs, so nothing else grows with the
	// table.
	const bindings = 4096
	st := goldenState()
	for i := 0; i < bindings; i++ {
		is := core.IdemState{Op: core.OpRelease, Job: int64(i)}
		if i%2 == 0 {
			is = core.IdemState{Op: core.OpAlloc, Job: int64(i), Placement: []core.PlacementEntry{{Machine: topology.NodeID(i), Count: 1}, {Machine: topology.NodeID(i + 1), Count: 1}}}
		}
		st.Idem[fmt.Sprintf("tenant-%04d/request-%08d", i%97, i)] = is
	}
	body := mustEncodeSnapshot(t, st)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := appendSnapshot(body[:0], st); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("snapshot encode allocates %v times for %d bindings, want the sorted key slice only", n, bindings)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := decodeSnapshotBody(body); err != nil {
			t.Fatal(err)
		}
	}) / bindings; n > 1.05 {
		t.Errorf("snapshot decode allocates %.3f times per binding, want at most 1.05 (the key)", n)
	}
}

// BenchmarkRecordCodec times the codec alone on the record that dominates
// svcbench's churn logs: a keyed 16-VM admission.
func BenchmarkRecordCodec(b *testing.B) {
	m := core.Mutation{Op: core.OpAlloc, Job: 123456,
		Homog:     &core.Homogeneous{N: 16, Demand: stats.Normal{Mu: 300, Sigma: 100}},
		Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 411, Count: 4}, {Machine: 412, Count: 4}, {Machine: 433, Count: 4}, {Machine: 434, Count: 4}}},
		IdemKey:   "bench-0000123456"}
	payload := mustEncode(b, m)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := appendMutation(buf, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRecord(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	legacy, err := legacyEncodeMutation(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-legacy-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(legacy)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRecord(legacy); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRecoverClampsStoredNegativeMean: a log an older writer left holds
// the admission that once made svcd's state unrecoverable — N = 8,
// mu = 5, sigma = 50, one VM per machine — with the contributions it
// stored then: Clark's min unclamped, -37.68 Mbps on each host link.
// Replay discards them and derives the clamped ones, so every link's sums
// are nonnegative and a checkpoint written afterwards restores (I13).
func TestRecoverClampsStoredNegativeMean(t *testing.T) {
	rack := func() topology.Spec {
		r := topology.Spec{UpCap: 1000}
		for i := 0; i < 4; i++ {
			r.Children = append(r.Children, topology.Spec{UpCap: 500, Slots: 2})
		}
		return r
	}
	topo, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{rack(), rack()}})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Homogeneous{N: 8, Demand: stats.Normal{Mu: 5, Sigma: 50}}
	alloc := core.Mutation{Op: core.OpAlloc, Job: 1, Homog: &req, Placement: &core.Placement{}}
	inside := map[topology.LinkID]int{}
	for _, mc := range topo.Machines() {
		alloc.Placement.Entries = append(alloc.Placement.Entries, core.PlacementEntry{Machine: mc, Count: 1})
		for l := mc; topo.Node(l).Parent != topology.None; l = topo.Node(l).Parent {
			inside[l]++
		}
	}
	var stored []core.Contribution
	for _, l := range topo.Links() {
		if m := inside[l]; m > 0 && m < req.N {
			d := stats.MinOfNormals(req.Demand.Sum(m), req.Demand.Sum(req.N-m)) // no clamp: the old arithmetic
			stored = append(stored, core.Contribution{Link: l, Mu: d.Mu, Sigma: d.Sigma})
		}
	}
	for _, c := range stored {
		if inside[c.Link] == 1 && math.Abs(c.Mu+37.68) > 0.005 {
			t.Fatalf("the fixture lost its point: host link %d carries %v Mbps", c.Link, c.Mu)
		}
	}

	dir := t.TempDir()
	f, _, err := (&stateDir{dir: dir, noSync: true}).createWAL(meta{Gen: 1, Eps: testEps, Nodes: topo.Len(), Slots: topo.TotalSlots()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendFrame(nil, withContribs(t, alloc, stored))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, j, err := Recover(dir, topo, testEps, nil, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	st := m.ExportState()
	for _, c := range stored {
		want := core.CrossingHomog(req.Demand, inside[c.Link], req.N)
		if got := st.Links[c.Link]; got.SumMu != want.Mu || got.SumVar != want.Var() || got.Stochastic != 1 {
			t.Errorf("link %d holds %+v, want the clamped contribution %v", c.Link, got, want)
		}
	}
	for l, rec := range st.Links {
		if rec.SumMu < 0 || rec.SumVar < 0 || rec.Det < 0 {
			t.Errorf("link %d holds a negative sum: %+v", l, rec)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m2, j2, err := Recover(dir, topo, testEps, nil, WithNoSync())
	if err != nil {
		t.Fatalf("the checkpoint written after the replay does not restore: %v", err)
	}
	defer j2.Close()
	if !m2.ExportState().Equal(st) {
		t.Fatal("the restored state differs from the replayed one")
	}
}
