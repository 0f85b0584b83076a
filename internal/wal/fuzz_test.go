package wal

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// FuzzWALDecode feeds arbitrary bytes to replay, the loop recovery and a
// standby's mirror run: frames walked in place, records decoded into
// storage the walk reuses, validated replay into a live manager. The
// invariants, whatever the input: never panic; agree with the oracle —
// every frame scanned, decoded into memory of its own and replayed until
// the first that fails — on the mutations applied, the offset replay
// stopped at and the state; and leave the manager internally consistent
// (slot accounting still balances).
func FuzzWALDecode(f *testing.F) {
	// Seed with a real log image so the fuzzer starts from valid framing
	// (binary records; testdata/fuzz/FuzzWALDecode holds legacy JSON logs).
	seed := []byte(walMagic)
	muts := []core.Mutation{
		{Op: core.OpAlloc, Job: 1,
			Homog:     &core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}},
			Placement: &core.Placement{Entries: []core.PlacementEntry{{Machine: 2, Count: 2}}},
			Contribs:  []core.Contribution{{Link: 2, Mu: 5, Sigma: 2}},
			IdemKey:   "seed"},
		{Op: core.OpFailMachine, Node: 2},
		{Op: core.OpRepair, Job: 1, Outcome: core.RepairFailed, EffectiveEps: 1},
		{Op: core.OpRestoreMachine, Node: 2},
		{Op: core.OpSetOffline, Node: 3, Offline: true},
	}
	for _, mut := range muts {
		payload, err := appendMutation(nil, mut)
		if err != nil {
			f.Fatal(err)
		}
		seed = appendFrame(seed, payload)
	}
	f.Add(seed)
	f.Add([]byte(walMagic))
	f.Add([]byte("garbage that is not a log"))
	f.Add(appendFrame([]byte(walMagic), []byte(`{"op":"alloc","job":-1}`)))
	// A binary record that claims 2^62 contributions in 20 bytes, a frame
	// a newer format wrote, and an upgraded-in-place image: legacy JSON
	// frames with binary ones after them in the same file.
	f.Add(appendFrame([]byte(walMagic), hugeCount()))
	f.Add(appendFrame(append([]byte(nil), seed...), []byte{0x02, 1, 2, 3}))
	mixed := []byte(walMagic)
	for i, mut := range muts {
		payload, err := legacyEncodeMutation(mut)
		if i >= 2 {
			payload, err = appendMutation(nil, mut)
		}
		if err != nil {
			f.Fatal(err)
		}
		mixed = appendFrame(mixed, payload)
	}
	f.Add(appendEpochFrame(mixed, 4))

	topo := testTopo(f)
	newManager := func(t *testing.T) *core.Manager {
		m, err := core.NewManager(topo, testEps)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, clean, scanErr := scanFrames(data, walMagic)
		if clean > len(data) {
			t.Fatalf("clean offset %d beyond input length %d", clean, len(data))
		}
		if scanErr == nil && len(data) >= magicLen && clean != len(data) {
			t.Fatalf("clean scan ended at %d of %d bytes", clean, len(data))
		}
		if clean < magicLen {
			return // bad magic: nothing behind it is ever replayed
		}
		oracle := newManager(t)
		wantApplied, wantEnd := 0, magicLen
		for _, fr := range frames {
			rec, err := DecodeRecord(fr.Payload)
			if err != nil {
				break // first corrupt or unknown-format record ends replay
			}
			if rec.Kind == KindMutation {
				if err := oracle.Replay(rec.Mutation); err != nil {
					break // semantically invalid: replay stops, no panic
				}
				wantApplied++
			}
			wantEnd = fr.End
		}

		m := newManager(t)
		applied, end, err := replay(m, data, magicLen, func(uint64) {})
		if applied != wantApplied || end != wantEnd || (err == nil) != (end == len(data)) {
			t.Fatalf("replay applied %d and stopped at %d (err %v); the oracle applied %d and stopped at %d of %d",
				applied, end, err, wantApplied, wantEnd, len(data))
		}
		st := m.ExportState()
		if !st.Equal(oracle.ExportState()) {
			t.Fatal("replay's state differs from the oracle's")
		}
		// Whatever replayed must have kept the books balanced: exporting
		// and re-importing the state must be accepted by the validator.
		if _, err := core.NewManagerFromState(topo, testEps, st); err != nil {
			t.Fatalf("replayed state fails its own validation: %v", err)
		}
	})
}
