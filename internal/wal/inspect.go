package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
)

// recordOf renders a decoded record in the legacy JSON shape, the one
// legible form every record has whatever format it was written in.
func recordOf(rec Record) record {
	if rec.Kind == KindEpoch {
		return record{Op: epochOp, Epoch: rec.Epoch}
	}
	mut := rec.Mutation
	out := record{
		Op:      mut.Op.String(),
		Job:     int64(mut.Job),
		Node:    int(mut.Node),
		Link:    int(mut.Link),
		Offline: mut.Offline,
		Eps:     mut.EffectiveEps,
		IdemKey: mut.IdemKey,
	}
	if mut.Homog != nil {
		h := core.HomogSpecOf(*mut.Homog)
		out.Homog = &h
	}
	if mut.Hetero != nil {
		out.Hetero = mut.Hetero.Demands
	}
	if mut.Placement != nil {
		out.Placement = mut.Placement.Entries
	}
	if mut.Op == core.OpRepair {
		out.Outcome = mut.Outcome.String()
	}
	return out
}

// Inspect writes a legible rendering of a state directory to w. For the
// newest snap-<gen>.snap: the file name with its meta record and a
// one-line summary (WriteState prints the state itself). For the newest
// wal-<gen>.log: the file name with the log's meta record, one JSON line
// per frame — {"off":…,"len":…,"format":"json|bin1",…fields…} — and a
// one-line summary. It opens nothing for writing and truncates nothing;
// a frame it cannot decode is rendered with its error and the walk goes on.
func Inspect(w io.Writer, dir string) error {
	snap, err := inspectSnapshot(w, dir)
	if err != nil {
		return err
	}
	gen, err := newestGen(dir, false)
	switch {
	case err != nil:
		return err
	case gen > 0:
		return inspectLog(w, walPath(dir, gen))
	case !snap:
		return fmt.Errorf("wal: no snap-<gen>.snap or wal-<gen>.log in %s", dir)
	}
	return nil
}

func inspectLog(w io.Writer, path string) error {
	data, err := readIfExists(path)
	if data == nil || err != nil {
		return err
	}
	frames, clean, scanErr := scanFrames(data, walMagic)
	if clean < magicLen {
		return fmt.Errorf("wal: %s: %w", path, scanErr)
	}
	name := filepath.Base(path)
	if len(frames) > 0 {
		fmt.Fprintf(w, `{"file":%q,"meta":%s}`+"\n", name, frames[0].Payload)
		frames = frames[1:]
	} else {
		fmt.Fprintf(w, `{"file":%q}`+"\n", name)
	}
	records, epoch := 0, uint64(1)
	for _, fr := range frames {
		var body any
		rec, err := DecodeRecord(fr.Payload)
		if err == nil {
			if rec.Kind == KindEpoch && rec.Epoch > epoch {
				epoch = rec.Epoch
			}
			body = recordOf(rec)
			records++
		} else {
			body = struct {
				Error string `json:"error"`
			}{err.Error()}
		}
		fields, err := json.Marshal(body)
		if err != nil {
			return err
		}
		// Splice the frame's position in front of the record's own fields.
		fmt.Fprintf(w, `{"off":%d,"len":%d,"format":%q,%s`+"\n",
			fr.End-headerLen-len(fr.Payload), len(fr.Payload), formatName(fr.Payload[0]), fields[1:])
	}
	summary := fmt.Sprintf("%s: %d records, clean length %d bytes, epoch %d", name, records, clean, epoch)
	if torn := len(data) - clean; torn > 0 {
		summary += fmt.Sprintf(", torn tail %d bytes (%v)", torn, scanErr)
	}
	_, err = fmt.Fprintln(w, summary)
	return err
}
