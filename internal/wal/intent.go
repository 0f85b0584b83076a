package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// The intent log is the sharded router's own durability seam: a cross-pod
// admission or release touches several pod-local WALs, none of which can
// individually answer "did the whole operation happen?" after a crash. The
// router journals a begin record BEFORE touching any pod and a done record
// after, so recovery can resolve every in-doubt operation deterministically
// from the pods' own states (see internal/shard).
//
// On-disk layout: one intents.log file per router, magic "SVCINT1\n", then
// the same CRC-framed records the pod WALs use: a format-1 envelope (below)
// around the mutation record of record.go, or legacy JSON in files written
// before format 1. The file is append-only and never compacted — cross-pod
// operations are the rare case by design, and resolved intents are skipped
// during replay.

// intentMagic heads intents.log.
const intentMagic = "SVCINT1\n"

// IntentKind enumerates intent-log records. The values are the kind
// byte of the format-1 envelope: append new kinds, never renumber.
type IntentKind int

const (
	// IntentBegin opens a cross-pod admission: the full original mutation
	// (request, placement, contributions, idempotency key) plus the pods
	// about to receive sub-frames. Durable before any pod commits.
	IntentBegin IntentKind = iota + 1
	// IntentDone closes a cross-pod admission: Commit records whether the
	// operation committed on every pod or was aborted and rolled back.
	IntentDone
	// IntentReleaseBegin opens a cross-pod release of a committed job.
	IntentReleaseBegin
	// IntentReleaseDone closes a cross-pod release.
	IntentReleaseDone
)

// String implements fmt.Stringer.
func (k IntentKind) String() string {
	switch k {
	case IntentBegin:
		return "begin"
	case IntentDone:
		return "done"
	case IntentReleaseBegin:
		return "release_begin"
	case IntentReleaseDone:
		return "release_done"
	default:
		return fmt.Sprintf("IntentKind(%d)", int(k))
	}
}

// Intent is one intent-log record.
type Intent struct {
	Kind IntentKind
	Job  core.JobID
	// Commit is meaningful for IntentDone: true when the admission
	// committed on every pod, false when it was aborted.
	Commit bool
	// Pods are the pod indices the operation spans (begin records only).
	Pods []int
	// Mut is the ORIGINAL un-partitioned mutation of an IntentBegin — the
	// request, full placement and contributions exactly as planned. The
	// router reconstructs the cross-pod job's merged state from this
	// record, never from the per-pod sub-frames.
	Mut core.Mutation
	// HasMut reports whether Mut is populated (IntentBegin records).
	HasMut bool
}

// Format-1 intent envelope, after the shared tag byte: the kind (the
// IntentKind values above, 1..4), a flags byte, varint job, uvarint pod
// count and that many varint pods; with intentHasMut set, the rest of
// the payload is the original mutation as a whole format-1 record, tag
// included.
const (
	intentCommit = 1 << iota
	intentHasMut

	knownIntentFlags = intentHasMut<<1 - 1
)

// appendIntent appends in's format-1 payload to buf; on error the
// returned slice must be discarded.
func appendIntent(buf []byte, in Intent) ([]byte, error) {
	if in.Kind < IntentBegin || in.Kind > IntentReleaseDone {
		return nil, fmt.Errorf("wal: unknown intent kind %d", int(in.Kind))
	}
	var flags byte
	if in.Commit {
		flags |= intentCommit
	}
	if in.HasMut {
		flags |= intentHasMut
	}
	e := encoder{b: append(buf, tagBin1, byte(in.Kind), flags)}
	e.varint(int64(in.Job))
	e.ints(in.Pods)
	if in.HasMut {
		return appendMutation(e.b, in.Mut)
	}
	return e.b, nil
}

// decodeIntent parses one intent frame payload, binary or legacy JSON.
func decodeIntent(payload []byte) (Intent, error) {
	if len(payload) == 0 {
		return Intent{}, fmt.Errorf("%w: empty intent", ErrCorrupt)
	}
	switch payload[0] {
	case tagBin1:
	case tagLegacy:
		return decodeLegacyIntent(payload)
	default:
		return Intent{}, fmt.Errorf("%w: intent tag 0x%02x", ErrUnsupportedFormat, payload[0])
	}
	d := decoder{b: payload[1:]}
	kind, flags := IntentKind(d.byte()), d.byte()
	if kind < IntentBegin || kind > IntentReleaseDone {
		d.fail("unknown intent kind")
	}
	if flags&^knownIntentFlags != 0 {
		d.fail("unknown intent flag")
	}
	in := Intent{Kind: kind, Commit: flags&intentCommit != 0, Job: core.JobID(d.varint()), Pods: d.ints(new([]int))}
	hasMut := flags&intentHasMut != 0
	if !hasMut && len(d.b) != 0 {
		d.fail("trailing bytes after the intent")
	}
	switch {
	case d.err != nil:
		return Intent{}, d.err
	case hasMut:
		return withMutation(in, d.b)
	}
	return in, nil
}

// withMutation completes a begin intent with the mutation record nested
// in its envelope.
func withMutation(in Intent, payload []byte) (Intent, error) {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return Intent{}, err
	}
	if rec.Kind != KindMutation {
		return Intent{}, fmt.Errorf("%w: intent carries a non-mutation record", ErrCorrupt)
	}
	in.Mut, in.HasMut = rec.Mutation, true
	return in, nil
}

// intentRecord is the JSON payload of one legacy intent frame; like
// record, it is read but no longer written.
type intentRecord struct {
	Kind   string          `json:"kind"`
	Job    int64           `json:"job"`
	Commit bool            `json:"commit,omitempty"`
	Pods   []int           `json:"pods,omitempty"`
	Mut    json.RawMessage `json:"mut,omitempty"`
}

var intentKindValues = map[string]IntentKind{
	"begin":         IntentBegin,
	"done":          IntentDone,
	"release_begin": IntentReleaseBegin,
	"release_done":  IntentReleaseDone,
}

func decodeLegacyIntent(payload []byte) (Intent, error) {
	var rec intentRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Intent{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	kind, ok := intentKindValues[rec.Kind]
	if !ok {
		return Intent{}, fmt.Errorf("%w: unknown intent kind %q", ErrCorrupt, rec.Kind)
	}
	in := Intent{Kind: kind, Job: core.JobID(rec.Job), Commit: rec.Commit, Pods: rec.Pods}
	if len(rec.Mut) == 0 {
		return in, nil
	}
	return withMutation(in, rec.Mut)
}

// IntentLog is the router's append-only cross-pod intent journal.
type IntentLog struct {
	stateDir
	mu  sync.Mutex
	f   *os.File
	err error // sticky: first append failure poisons the log
}

// IntentOption configures an IntentLog.
type IntentOption func(*IntentLog)

// IntentNoSync disables the fsync after every intent append — tests and
// benchmarks only, exactly like WithNoSync for pod journals.
func IntentNoSync() IntentOption {
	return func(l *IntentLog) { l.noSync = true }
}

// OpenIntentLog opens (or creates) dir/intents.log and replays it,
// returning every intact intent in append order. A torn or corrupt tail
// is truncated — exactly the pod-WAL recovery contract — so the next
// append continues from the last intact record.
func OpenIntentLog(dir string, opts ...IntentOption) (*IntentLog, []Intent, error) {
	if err := ensureDir(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: intent log: %w", err)
	}
	l := &IntentLog{stateDir: stateDir{dir: dir}}
	for _, o := range opts {
		o(l)
	}

	path := filepath.Join(dir, "intents.log")
	data, err := readIfExists(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: intent log: %w", err)
	}
	if len(data) < magicLen {
		// There is no file yet, or a crash while it was being created left
		// a short one; nothing durable can live in it, so start it over.
		data = []byte(intentMagic)
		if err := l.writeDurably(path, data); err != nil {
			return nil, nil, err
		}
	}

	frames, clean, scanErr := scanFrames(data, intentMagic)
	if scanErr != nil && clean < magicLen {
		return nil, nil, scanErr // bad magic: refuse rather than clobber
	}
	intents := make([]Intent, 0, len(frames))
	for _, fr := range frames {
		in, derr := decodeIntent(fr.Payload)
		if derr != nil {
			return nil, nil, derr
		}
		intents = append(intents, in)
	}
	if l.f, err = l.openLog(path, int64(clean)); err != nil {
		return nil, nil, err
	}
	return l, intents, nil
}

// Append durably appends one intent: the write and (unless IntentNoSync)
// the fsync complete before Append returns. Cross-pod operations are
// rare by construction, so intents pay a plain synchronous fsync rather
// than joining a group commit.
func (l *IntentLog) Append(in Intent) error {
	buf, err := appendIntent(beginFrame(nil), in)
	if err != nil {
		return err
	}
	endFrame(buf, 0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errors.New("wal: intent log closed")
	}
	if _, werr := l.f.Write(buf); werr != nil {
		l.err = fmt.Errorf("wal: intent log append: %w", werr)
		return l.err
	}
	l.err = l.sync(l.f)
	return l.err
}

// Close closes the log file. Further appends fail.
func (l *IntentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
