package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// testdata/legacy-v1 is a state directory written by the last commit
// whose records were JSON (see its README): snapshot + JSON log with
// alloc, release, fail, repair, set-offline, epoch and keyed records, the
// ExportState it must recover to, and a JSON intents.log. It stands for
// an operator's existing directory, which must keep working.

// copyLegacy copies the fixture into a scratch directory, because
// recovery opens the log for appending.
func copyLegacy(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"snap-2.snap", "wal-2.log", "intents.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy-v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyDirectoryUpgradesInPlace: the legacy directory recovers to
// its pinned state, accepts binary appends behind its JSON records, and
// the mixed file recovers again to exactly the live state.
func TestLegacyDirectoryUpgradesInPlace(t *testing.T) {
	dir := copyLegacy(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-v1", "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned core.ManagerState
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	legacyLog, err := os.ReadFile(walPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}

	m, j := mustRecover(t, dir)
	if got := m.ExportState(); !reflect.DeepEqual(got, &pinned) {
		t.Fatalf("legacy directory recovered to a different state:\n got %+v\nwant %+v", got, &pinned)
	}
	if j.Epoch() != 3 || j.Gen() != 2 || j.Appended() != 16 {
		t.Fatalf("epoch %d gen %d appended %d, want 3, 2, 16", j.Epoch(), j.Gen(), j.Appended())
	}

	// Upgrade in place: new commits land in the same file, in format 1.
	// (The fixture's datacenter is full, so release before admitting.)
	if err := m.Release(core.JobID(pinned.Jobs[0].ID), core.WithIdemKey("after-upgrade")); err != nil {
		t.Fatalf("release on the upgraded directory: %v", err)
	}
	if _, err := m.AllocateHomog(homog(1, 2, 1)); err != nil {
		t.Fatalf("allocate on the upgraded directory: %v", err)
	}
	if err := j.AdvanceEpoch(4); err != nil {
		t.Fatal(err)
	}
	want := m.ExportState()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	mixed, err := os.ReadFile(walPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(mixed, legacyLog) {
		t.Fatal("the upgrade rewrote legacy bytes")
	}
	frames, _, err := scanFrames(mixed, walMagic)
	if err != nil {
		t.Fatal(err)
	}
	var tags []byte
	for _, fr := range frames[1:] {
		tags = append(tags, fr.Payload[0])
	}
	if want := strings.Repeat("{", 17) + "\x01\x01\x01"; string(tags) != want {
		t.Fatalf("record tags %q, want 17 legacy records then 3 binary ones", tags)
	}

	m2, j2 := mustRecover(t, dir)
	defer j2.Close()
	if !reflect.DeepEqual(m2.ExportState(), want) {
		t.Fatal("the mixed JSON-then-binary log recovered to a different state")
	}
	if j2.Epoch() != 4 || j2.Appended() != 18 {
		t.Fatalf("epoch %d appended %d after the second recovery, want 4 and 18", j2.Epoch(), j2.Appended())
	}
}

// TestLegacyIntentLog: the same for the router's intent log.
func TestLegacyIntentLog(t *testing.T) {
	dir := copyLegacy(t)
	want := []Intent{
		testIntent(7),
		{Kind: IntentDone, Job: 7, Commit: true},
		{Kind: IntentReleaseBegin, Job: 7, Pods: []int{0, 2}},
		{Kind: IntentReleaseDone, Job: 7},
	}
	l, got, err := OpenIntentLog(dir, IntentNoSync())
	if err != nil {
		t.Fatalf("open the legacy intent log: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy intents:\n got %+v\nwant %+v", got, want)
	}
	more := []Intent{testIntent(8), {Kind: IntentDone, Job: 8}}
	for _, in := range more {
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := OpenIntentLog(dir, IntentNoSync())
	if err != nil {
		t.Fatalf("reopen the mixed intent log: %v", err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, append(want, more...)) {
		t.Fatalf("mixed intents:\n got %+v", got)
	}
}

// TestInspect: every frame of a legacy and of a binary log renders as
// one JSON line in the same record shape, and inspecting changes no byte
// on disk — torn tail included.
func TestInspect(t *testing.T) {
	dir := copyLegacy(t)
	m, j := mustRecover(t, dir)
	if err := m.Release(8, core.WithIdemKey("after-upgrade")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath(dir, 2), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1}); err != nil { // a torn header
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(walPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := Inspect(&out, dir); err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// snap: file line, summary; wal: file line, 18 records, summary;
	// intents: file line, 4, summary.
	if len(lines) != 1+1+1+18+1+1+4+1 {
		t.Fatalf("Inspect printed %d lines:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		if i == 1 || i == 21 || i == 27 {
			continue // the summaries are prose
		}
		var fields map[string]any
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
	}
	for _, want := range []string{
		`{"file":"snap-2.snap","meta":{"gen":2,"eps":0.05,"nodes":7,"slots":12}}`,
		"snap-2.snap: format json, 404 bytes, 2 jobs, 1 bindings, 0 machines down, 0 links down\n",
		`{"file":"wal-2.log","meta":{"gen":2,"eps":0.05,"nodes":7,"slots":12}}`,
		`"format":"json","op":"repair","job":1,"outcome":"failed","eps":1}`,
		`"format":"json","op":"epoch","epoch":3}`,
		`"format":"bin1","op":"release","job":8,"idem_key":"after-upgrade"}`,
		`wal-2.log: 18 records, clean length `, `, epoch 3, torn tail 5 bytes (`,
		`"format":"json","kind":"begin","job":7,"pods":[0,2],"mut":{"op":"alloc","job":7,`,
		`intents.log: 4 records, clean length 386 bytes`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("Inspect output lacks %q:\n%s", want, out.String())
		}
	}
	if after, _ := os.ReadFile(walPath(dir, 2)); !bytes.Equal(before, after) {
		t.Fatal("Inspect modified the log")
	}
	if err := Inspect(&out, t.TempDir()); err == nil {
		t.Fatal("Inspect of an empty directory must fail")
	}
}
