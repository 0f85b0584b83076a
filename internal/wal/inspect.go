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
		Op:       mut.Op.String(),
		Job:      int64(mut.Job),
		Contribs: mut.Contribs,
		Node:     int(mut.Node),
		Link:     int(mut.Link),
		Offline:  mut.Offline,
		Eps:      mut.EffectiveEps,
		IdemKey:  mut.IdemKey,
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
// wal-<gen>.log, and for intents.log when the directory is a sharded
// router's: the file name (with the log's meta record), one JSON line
// per frame — {"off":…,"len":…,"format":"json|bin1",…fields…} — and a
// one-line summary. It opens nothing for writing and truncates nothing;
// a frame it cannot decode is rendered with its error and the walk goes on.
func Inspect(w io.Writer, dir string) error {
	snap, err := inspectSnapshot(w, dir)
	if err != nil {
		return err
	}
	gen, err := newestGen(dir, false)
	if err == nil && gen > 0 {
		_, err = inspectFile(w, walPath(dir, gen), walMagic)
	}
	if err != nil {
		return err
	}
	found, err := inspectFile(w, filepath.Join(dir, "intents.log"), intentMagic)
	if err == nil && !found && gen == 0 && !snap {
		err = fmt.Errorf("wal: no snap-<gen>.snap, wal-<gen>.log or intents.log in %s", dir)
	}
	return err
}

func inspectFile(w io.Writer, path, magic string) (found bool, err error) {
	data, err := readIfExists(path)
	if data == nil || err != nil {
		return false, err
	}
	frames, clean, scanErr := scanFrames(data, magic)
	if clean < magicLen {
		return true, fmt.Errorf("wal: %s: %w", path, scanErr)
	}
	name := filepath.Base(path)
	if magic == walMagic && len(frames) > 0 {
		fmt.Fprintf(w, `{"file":%q,"meta":%s}`+"\n", name, frames[0].Payload)
		frames = frames[1:]
	} else {
		fmt.Fprintf(w, `{"file":%q}`+"\n", name)
	}
	records, epoch := 0, uint64(1)
	for _, fr := range frames {
		var body any
		var err error
		if magic == intentMagic {
			var in Intent
			if in, err = decodeIntent(fr.Payload); err == nil {
				line := intentRecord{Kind: in.Kind.String(), Job: int64(in.Job), Commit: in.Commit, Pods: in.Pods}
				if in.HasMut {
					line.Mut, err = json.Marshal(recordOf(Record{Mutation: in.Mut}))
				}
				body = line
			}
		} else {
			var rec Record
			if rec, err = DecodeRecord(fr.Payload); err == nil {
				if rec.Kind == KindEpoch && rec.Epoch > epoch {
					epoch = rec.Epoch
				}
				body = recordOf(rec)
			}
		}
		if err != nil {
			body = struct {
				Error string `json:"error"`
			}{err.Error()}
		} else {
			records++
		}
		fields, err := json.Marshal(body)
		if err != nil {
			return true, err
		}
		// Splice the frame's position in front of the record's own fields.
		fmt.Fprintf(w, `{"off":%d,"len":%d,"format":%q,%s`+"\n",
			fr.End-headerLen-len(fr.Payload), len(fr.Payload), formatName(fr.Payload[0]), fields[1:])
	}
	summary := fmt.Sprintf("%s: %d records, clean length %d bytes", name, records, clean)
	if magic == walMagic {
		summary += fmt.Sprintf(", epoch %d", epoch)
	}
	if torn := len(data) - clean; torn > 0 {
		summary += fmt.Sprintf(", torn tail %d bytes (%v)", torn, scanErr)
	}
	_, err = fmt.Fprintln(w, summary)
	return true, err
}
