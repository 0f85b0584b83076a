package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// goldenState is a small state with every section of a format-1 snapshot
// body in it: a homogeneous and a heterogeneous job, a VM list, stochastic
// and deterministic contributions, a degraded job, both fault lists, every
// counter, and bindings that are not in key order in any map iteration.
func goldenState() *core.ManagerState {
	eps := 0.2
	return &core.ManagerState{
		NextID: 3,
		Links:  []core.LinkRecord{{}, {Det: 2, SumMu: 1.25, SumVar: 0.25, Stochastic: 1}},
		Used:   []int{0, 4},
		Jobs: []core.JobState{
			{ID: 1, Homog: &core.HomogSpec{N: 4, Mu: 1.3, Sigma: 0.7},
				Placement: []core.PlacementEntry{{Machine: 2, Count: 1}, {Machine: 6, Count: 3}},
				Contribs:  []core.Contribution{{Link: 1, Mu: 1.25, Sigma: 0.5}, {Link: 6, Mu: 2, Det: true}}},
			{ID: 3, Hetero: []stats.Normal{{Mu: 3, Sigma: 1}},
				Placement:   []core.PlacementEntry{{Machine: 5, Count: 1, VMs: []int{0}}},
				DegradedEps: &eps},
		},
		MachinesDown: []int{4},
		LinksDown:    []int{6, 300},
		Counters: core.CounterState{MachineFailures: 1, MachineRestores: 2, LinkFailures: 3, LinkRestores: 4,
			NoopRepairs: 5, MovedRepairs: 6, DegradedRepairs: 7, FailedRepairs: 300},
		Idem: map[string]core.IdemState{
			"b":   {Op: core.OpRelease, Job: 2},
			"a/1": {Op: core.OpAlloc, Job: 1, Placement: []core.PlacementEntry{{Machine: 2, Count: 1}, {Machine: 6, Count: 3}}},
			"c":   {Op: core.OpFailMachine},
		},
	}
}

func mustEncodeSnapshot(t testing.TB, st *core.ManagerState) []byte {
	t.Helper()
	body, err := appendSnapshot(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSnapshotFormat1Golden pins the bytes of a format-1 snapshot body
// against the layout table in the package comment, for the reason
// TestFormat1Golden pins a record's.
func TestSnapshotFormat1Golden(t *testing.T) {
	f64 := func(v float64) []byte {
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	want := cat(
		[]byte{0x01, 6},                                                                       // tag, next id 3 (zigzag)
		[]byte{2}, f64(0), f64(0), f64(0), []byte{0}, f64(2), f64(1.25), f64(0.25), []byte{2}, // 2 links
		[]byte{2, 0, 8},                            // used: 0, 4
		[]byte{2},                                  // 2 jobs
		[]byte{2, jobHomog, 8}, f64(1.3), f64(0.7), // job 1: N 4, mu, sigma
		[]byte{2, 4, 2, 0, 12, 6, 0},                                        // 2 entries (machine, count, no VMs)
		[]byte{2, 2, 0}, f64(1.25), f64(0.5), []byte{12, 1}, f64(2), f64(0), // 2 contributions
		[]byte{6, jobHetero | jobDegraded, 1}, f64(3), f64(1), // job 3: 1 demand
		[]byte{1, 10, 2, 1, 0, 0},                                    // 1 entry with VM list [0]; no contributions
		f64(0.2),                                                     // degraded eps
		[]byte{1, 8},                                                 // machines down: 4
		[]byte{2, 12, 0xd8, 0x04},                                    // links down: 6, 300
		[]byte{1, 2, 3, 4, 5, 6, 7, 0xac, 0x02},                      // counters
		[]byte{3},                                                    // 3 bindings, ascending by key
		[]byte{3}, []byte("a/1"), []byte{1, 2, 2, 4, 2, 0, 12, 6, 0}, // alloc, job 1, 2 entries
		[]byte{1}, []byte("b"), []byte{2, 4, 0}, // release, job 2, no placement
		[]byte{1}, []byte("c"), []byte{3, 0, 0}, // fail_machine
	)
	got := mustEncodeSnapshot(t, goldenState())
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot body drifted from format 1:\n got %x\nwant %x", got, want)
	}
	st, err := decodeSnapshotBody(want)
	if err != nil || !reflect.DeepEqual(st, goldenState()) {
		t.Fatalf("the pinned bytes decode to (err %v)\n got %+v\nwant %+v", err, st, goldenState())
	}
	// Equal states give equal bytes, whatever order their maps iterate in.
	for i := 0; i < 20; i++ {
		if again := mustEncodeSnapshot(t, goldenState()); !bytes.Equal(again, want) {
			t.Fatal("two encodings of one state differ")
		}
	}
}

// fillValue sets everything reachable from v to a distinct non-zero
// value: two elements in every slice and map, every pointer set. A kind
// it does not know fails the test, so a field of a new shape in the state
// types cannot slip past TestSnapshotFieldsComplete.
func fillValue(t *testing.T, v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillValue(t, v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillValue(t, key, next)
			fillValue(t, elem, next)
			v.SetMapIndex(key, elem)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Uint8:
		if v.Type() != reflect.TypeOf(core.OpAlloc) {
			t.Fatalf("the state types grew a %v field; teach fillValue and mutateLeaf about it", v.Type())
		}
		v.SetUint(uint64(core.OpAlloc)) // one past it is a known op too
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("key-%d", *next))
	default:
		t.Fatalf("the state types grew a %v field; teach fillValue and mutateLeaf about it", v.Kind())
	}
}

// mutateLeaf walks v in a fixed order and changes the target-th thing
// that can change on its own: a scalar by the smallest step there is (one
// ulp for a float), a pointer to nil, a slice or map by dropping its last
// element, a map key by renaming it. It returns the path of what it
// changed, or "" when v holds fewer than target+1 such things.
func mutateLeaf(v reflect.Value, path string, target int, n *int) string {
	hit := func() bool { *n++; return *n-1 == target }
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := mutateLeaf(v.Field(i), path+"."+v.Type().Field(i).Name, target, n); p != "" {
				return p
			}
		}
	case reflect.Pointer:
		if hit() {
			v.Set(reflect.Zero(v.Type()))
			return path + " = nil"
		}
		return mutateLeaf(v.Elem(), path, target, n)
	case reflect.Slice:
		if hit() {
			v.Set(v.Slice(0, v.Len()-1))
			return path + " shortened"
		}
		for i := 0; i < v.Len(); i++ {
			if p := mutateLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), target, n); p != "" {
				return p
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, k int) bool { return keys[i].String() < keys[k].String() })
		if hit() {
			v.SetMapIndex(keys[0], reflect.Value{})
			return path + " shortened"
		}
		for _, key := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(key))
			if hit() {
				v.SetMapIndex(key, reflect.Value{})
				v.SetMapIndex(reflect.ValueOf(key.String()+"x"), elem)
				return fmt.Sprintf("%s key %q renamed", path, key)
			}
			if p := mutateLeaf(elem, fmt.Sprintf("%s[%q]", path, key), target, n); p != "" {
				v.SetMapIndex(key, elem)
				return p
			}
		}
	default:
		if !hit() {
			return ""
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64, reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		}
		return path
	}
	return ""
}

// TestSnapshotFieldsComplete reflects over core.ManagerState and everything
// it holds (LinkRecord, JobState with its HomogSpec, stats.Normal demands,
// core.PlacementEntry and core.Contribution lists, CounterState, IdemState
// — the types the manager itself keeps these in, so there is one family to
// police), sets every field, and then changes one thing at a time. The binary round trip must
// reproduce each variant exactly and in different bytes, and the typed
// equality promotion relies on must tell each from the original — so a
// field added to the state later cannot be silently dropped by the codec
// or ignored by the cross-check.
func TestSnapshotFieldsComplete(t *testing.T) {
	filled := func() *core.ManagerState {
		st, next := new(core.ManagerState), 0
		fillValue(t, reflect.ValueOf(st).Elem(), &next)
		return st
	}
	base := filled()
	baseBytes := mustEncodeSnapshot(t, base)
	if got, err := decodeSnapshotBody(baseBytes); err != nil || !reflect.DeepEqual(got, base) {
		t.Fatalf("a state with every field set does not round-trip (err %v):\n got %+v\nwant %+v", err, got, base)
	}
	if !base.Equal(filled()) {
		t.Fatal("Equal tells two identical states apart")
	}

	changed := 0
	for target := 0; ; target++ {
		st, n := filled(), 0
		path := mutateLeaf(reflect.ValueOf(st).Elem(), "state", target, &n)
		if path == "" {
			break
		}
		changed++
		if base.Equal(st) || st.Equal(base) {
			t.Errorf("%s: Equal does not notice the change", path)
		}
		body := mustEncodeSnapshot(t, st)
		if bytes.Equal(body, baseBytes) {
			t.Errorf("%s: the encoding does not carry the change", path)
		}
		if got, err := decodeSnapshotBody(body); err != nil || !reflect.DeepEqual(got, st) {
			t.Errorf("%s: the change does not survive the round trip (err %v)", path, err)
		}
	}
	// 8 counters, 4 link fields x 2, 2 jobs with a dozen fields each, ...
	if changed < 100 {
		t.Fatalf("only %d single-field changes tried; the walk lost part of the state", changed)
	}

	// nil and empty are one state, to Equal as on disk.
	empty := &core.ManagerState{Used: []int{}, Jobs: []core.JobState{}, Idem: map[string]core.IdemState{}}
	if !empty.Equal(&core.ManagerState{}) || !bytes.Equal(mustEncodeSnapshot(t, empty), mustEncodeSnapshot(t, &core.ManagerState{})) {
		t.Fatal("an empty list and a nil one are told apart")
	}
	// Floats are compared by their bits.
	neg := &core.ManagerState{Links: []core.LinkRecord{{Det: math.Copysign(0, -1)}}}
	if neg.Equal(&core.ManagerState{Links: []core.LinkRecord{{}}}) {
		t.Fatal("Equal takes -0 for +0")
	}
}

// TestSnapshotEncoderRefuses: what json.Marshal refused, or no decoder
// could read back, vetoes the checkpoint.
func TestSnapshotEncoderRefuses(t *testing.T) {
	for name, bad := range map[string]func(*core.ManagerState){
		"NaN":        func(st *core.ManagerState) { st.Links[1].SumMu = math.NaN() },
		"Inf":        func(st *core.ManagerState) { *st.Jobs[1].DegradedEps = math.Inf(1) },
		"unknown op": func(st *core.ManagerState) { st.Idem["b"] = core.IdemState{Op: 99} },
		"zero op":    func(st *core.ManagerState) { st.Idem["b"] = core.IdemState{} },
	} {
		st := goldenState()
		bad(st)
		if _, err := appendSnapshot(nil, st); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// hugeSnapshotCounts are format-1 bodies that each claim 2^62 elements
// in one list, with a few bytes behind the claim.
func hugeSnapshotCounts() map[string][]byte {
	huge := func(prefix ...byte) []byte {
		return append(binary.AppendUvarint(prefix, 1<<62), make([]byte, 16)...)
	}
	job := []byte{tagBin1, 0, 0, 0, 1, 0} // no links, nothing used, one job, id 0
	tail := []byte{tagBin1, 0, 0, 0, 0}   // ... no jobs
	counters := make([]byte, 8)
	return map[string][]byte{
		"links":         huge(tagBin1, 0),
		"used":          huge(tagBin1, 0, 0),
		"jobs":          huge(tagBin1, 0, 0, 0),
		"hetero":        huge(append(job, jobHetero)...),
		"entries":       huge(append(job, 0)...),
		"vms":           huge(append(job, 0, 1, 0, 0)...),
		"contribs":      huge(append(job, 0, 0)...),
		"machines down": huge(tail...),
		"links down":    huge(append(tail, 0)...),
		"bindings":      huge(append(append(tail, 0, 0), counters...)...),
		"key":           huge(append(append(append(tail, 0, 0), counters...), 1)...),
	}
}

// TestSnapshotDecoderBoundsAllocation: as for records, a count is checked
// against the bytes left before it sizes anything.
func TestSnapshotDecoderBoundsAllocation(t *testing.T) {
	for name, payload := range hugeSnapshotCounts() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := decodeSnapshotBody(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) || st != nil {
			t.Errorf("%s: state %v, err %v, want no state and ErrCorrupt", name, st, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2048 {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(payload), grew)
		}
	}
}

// TestSnapshotDecoderRejectsMalformed: every truncation of a valid body,
// trailing bytes, bindings out of order or twice, unknown flags and ops —
// each is ErrCorrupt and none yields a state.
func TestSnapshotDecoderRejectsMalformed(t *testing.T) {
	good := mustEncodeSnapshot(t, goldenState())
	bad := map[string][]byte{
		"trailing byte": append(append([]byte(nil), good...), 0),
		"empty":         {},
	}
	for cut := 1; cut < len(good); cut++ {
		bad[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	swap := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("test setup: %q not in the golden body", old)
		}
		return bytes.Replace(append([]byte(nil), good...), []byte(old), []byte(new), 1)
	}
	bad["bindings out of order"] = swap("\x01b\x02", "\x01d\x02")
	bad["binding twice"] = swap("\x01c\x03", "\x01b\x03")
	bad["unknown binding op"] = swap("\x01c\x03", "\x01c\x09")
	bad["unknown job flag"] = swap(string([]byte{2, jobHomog, 8}), string([]byte{2, jobHomog | 0x80, 8}))
	for name, payload := range bad {
		if st, err := decodeSnapshotBody(payload); !errors.Is(err, ErrCorrupt) || st != nil {
			t.Errorf("%s: state %v, err %v, want no state and ErrCorrupt", name, st, err)
		}
	}
	if _, err := decodeSnapshotBody([]byte{0x02, 1, 2}); !errors.Is(err, ErrUnsupportedFormat) || errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the one snapshot-body
// decoder. Whatever the input: no panic; an error comes with no state, not
// part of one; a binary body cannot make the decoder allocate out of
// proportion to its own size; and a state that does decode survives the
// encoder and decoder unchanged.
func FuzzSnapshotDecode(f *testing.F) {
	good := mustEncodeSnapshot(f, goldenState())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{tagBin1})
	f.Add([]byte{0x02, 1, 2, 3})
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-v1", "snap-2.snap"))
	if err != nil {
		f.Fatal(err)
	}
	_, body, err := splitSnapshot(legacy, "legacy")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte(`{"state":null}`))
	for _, payload := range hugeSnapshotCounts() {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotBody(data)
		// The allocation bound is held on the smallest of three more,
		// identical decodes: a fuzz worker's first one also pays for lazily
		// built state (≈ 5.5 KB on a 1-byte body, whatever the decoder), and
		// TotalAlloc is process-wide, so the fuzz engine's own goroutines add
		// to any one reading. They can only add: the minimum is the decoder's.
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeSnapshotBody(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			if st != nil {
				t.Fatalf("a failed decode returned a state: %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("unclassified error: %v", err)
			}
		}
		// The widest element for its encoded size is a job: 96 bytes of
		// JobState behind 4 bytes of input. JSON bodies are encoding/json's
		// to bound.
		if len(data) > 0 && data[0] == tagBin1 && grew > uint64(64*len(data)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := appendSnapshot(nil, st)
		if err != nil {
			return // a legacy body may hold what format 1 refuses to write
		}
		st2, err := decodeSnapshotBody(again)
		if err != nil || !st.Equal(st2) {
			t.Fatalf("a decoded state does not survive re-encoding (err %v):\n got %+v\nwant %+v", err, st2, st)
		}
		if third := mustEncodeSnapshot(t, st2); !bytes.Equal(again, third) {
			t.Fatal("the encoding is not canonical")
		}
	})
}

// snapshotDir is a state directory at generation 2: the workload's state
// in snap-2.snap, two more records in wal-2.log.
func snapshotDir(t *testing.T) (dir string, want *core.ManagerState) {
	t.Helper()
	dir = t.TempDir()
	m, j := mustRecover(t, dir)
	chaosWorkload(t, m)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a, err := m.AllocateHomog(homog(1, 2, 1), core.WithIdemKey("after-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	want = m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	image := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		image[e.Name()] = string(data)
	}
	return image
}

// retagSnapshot rewrites a snapshot file with its body's format tag
// replaced, checksum and all: what a newer svcd would have written.
func retagSnapshot(t *testing.T, path string, tag byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaPayload, body, err := splitSnapshot(data, path)
	if err != nil {
		t.Fatal(err)
	}
	body = append([]byte{tag}, body[1:]...)
	if err := os.WriteFile(path, appendFrame(appendFrame([]byte(snapMagic), metaPayload), body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWritesBinarySnapshot: a checkpoint's snapshot is format 1,
// recovers with its log tail to exactly the live state, and renders
// through Inspect and WriteState.
func TestCheckpointWritesBinarySnapshot(t *testing.T) {
	dir, want := snapshotDir(t)
	data, err := os.ReadFile(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := splitSnapshot(data, "snap-2.snap")
	if err != nil || body[0] != tagBin1 {
		t.Fatalf("snapshot body tag %#x (err %v), want format 1", body[0], err)
	}
	base, err := decodeSnapshotBody(body)
	if err != nil {
		t.Fatal(err)
	}
	m, j := mustRecover(t, dir)
	defer j.Close()
	if got := m.ExportState(); !reflect.DeepEqual(got, want) || !got.Equal(want) {
		t.Fatal("snapshot plus tail recovered to a different state")
	}

	var out bytes.Buffer
	if err := Inspect(&out, dir); err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("snap-2.snap: format bin1, %d bytes, %d jobs, %d bindings, 0 machines down, 0 links down\n",
		len(data), len(base.Jobs), len(base.Idem))
	if !strings.Contains(out.String(), summary) || !strings.HasPrefix(out.String(), `{"file":"snap-2.snap","meta":{"gen":2,`) {
		t.Fatalf("Inspect output lacks the snapshot header or %q:\n%s", summary, out.String())
	}
	out.Reset()
	if err := WriteState(&out, dir); err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(served)+"\n" {
		t.Fatalf("WriteState is not the state's JSON:\n got %s\nwant %s", out.String(), served)
	}
	if err := WriteState(&out, t.TempDir()); err == nil {
		t.Fatal("WriteState of a directory without a snapshot must fail")
	}
}

// TestLegacySnapshotUpgrades: the JSON snapshot of testdata/legacy-v1 is
// still read, and the next checkpoint of that directory is binary.
func TestLegacySnapshotUpgrades(t *testing.T) {
	dir := copyLegacy(t)
	m, j := mustRecover(t, dir)
	want := m.ExportState()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, body, err := splitSnapshot(data, "snap-3.snap"); err != nil || body[0] != tagBin1 {
		t.Fatalf("the upgraded directory's snapshot has tag %#x (err %v), want format 1", body[0], err)
	}
	if _, err := os.Stat(snapPath(dir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the legacy snapshot outlived the checkpoint: %v", err)
	}
	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if !reflect.DeepEqual(m2.ExportState(), want) {
		t.Fatal("the binary snapshot of the legacy directory recovered to a different state")
	}
}

// TestRecoverRefusesNewerSnapshotFormat: a snapshot whose body carries a
// tag this binary does not know was written by a newer svcd. Recovery
// refuses with ErrUnsupportedFormat and leaves every file as it is —
// whether the snapshot is the current generation's or, behind an orphaned
// rotation, its predecessor's.
func TestRecoverRefusesNewerSnapshotFormat(t *testing.T) {
	refused := func(t *testing.T, dir string) {
		t.Helper()
		before := dirImage(t, dir)
		_, _, err := Recover(dir, testTopo(t), testEps, nil, WithNoSync())
		if !errors.Is(err, ErrUnsupportedFormat) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Recover: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatal("recovery changed a directory it refused")
		}
	}
	t.Run("current generation", func(t *testing.T) {
		dir, _ := snapshotDir(t)
		retagSnapshot(t, snapPath(dir, 2), 0x02)
		refused(t, dir)
	})
	t.Run("orphaned rotation's predecessor", func(t *testing.T) {
		dir, _ := snapshotDir(t)
		retagSnapshot(t, snapPath(dir, 2), 0x02)
		topo := testTopo(t)
		f, _, err := (&stateDir{dir: dir, noSync: true}).createWAL(meta{Gen: 3, Eps: testEps, Nodes: topo.Len(), Slots: topo.TotalSlots()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		refused(t, dir)
	})
}
