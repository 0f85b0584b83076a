package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// stateDir is a state directory and its flush policy: the one place that
// names, creates, opens and deletes the files in it. The journal and a
// standby's mirror embed it (see the table in the package comment).
type stateDir struct {
	dir       string
	noSync    bool
	syncDelay time.Duration // simulated device flush (benchmarks only)
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.snap", gen))
}

// writeDurably publishes data as the file at path: written to path.tmp,
// fsynced, renamed into place (atomic on POSIX) and the directory synced.
// Whatever stops it, path holds either what it held before or all of
// data; a leftover .tmp is swept by the next scanDir.
func (d *stateDir) writeDurably(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", filepath.Base(path), err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = d.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		remove(tmp)
		return fmt.Errorf("wal: write %s: %w", filepath.Base(path), err)
	}
	d.syncDir()
	return nil
}

// openLog opens the log at path for appending at size, cutting off
// whatever lies past it: a torn tail, or what a failed promotion left
// behind the last mirrored frame.
func (d *stateDir) openLog(path string, size int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = f.Truncate(size); err == nil {
			return f, nil
		}
		f.Close()
	}
	return nil, fmt.Errorf("wal: open log: %w", err)
}

// createWAL publishes a fresh log file for m.Gen — magic, meta frame, and
// (past epoch 1) the generation's epoch record — and opens it. It returns
// the file and its size, the caller's new durable frontier. At epoch 1
// the file is byte-identical to pre-replication logs.
func (d *stateDir) createWAL(m meta, epoch uint64) (*os.File, int64, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, 0, err
	}
	buf := appendFrame([]byte(walMagic), payload)
	if epoch > 1 {
		buf = appendEpochFrame(buf, epoch)
	}
	path := walPath(d.dir, m.Gen)
	if err := d.writeDurably(path, buf); err != nil {
		return nil, 0, err
	}
	f, err := d.openLog(path, int64(len(buf)))
	return f, int64(len(buf)), err
}

func (d *stateDir) sync(f *os.File) error {
	if d.syncDelay > 0 {
		time.Sleep(d.syncDelay)
		return nil
	}
	if d.noSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the state directory so renames and creates are durable.
// Best-effort: not every platform supports directory fsync.
func (d *stateDir) syncDir() {
	if d.noSync || d.syncDelay > 0 {
		return
	}
	if dir, err := os.Open(d.dir); err == nil {
		//lint:ignore errflow directory fsync is best-effort; several filesystems refuse it and the file fsync already covers the contents
		dir.Sync()
		dir.Close()
	}
}

// ensureDir, openRead and remove complete the list: with them no other
// file of the package calls the os package (scripts/check.sh greps for
// it), so an injected file system replaces this one.
func ensureDir(dir string) error             { return os.MkdirAll(dir, 0o755) }
func openRead(path string) (*os.File, error) { return os.Open(path) }
func remove(path string) error               { return os.Remove(path) }

// readIfExists reads the whole file at path; a missing file is nil and no
// error: generation 1 has no snapshot, a fresh directory no log.
func readIfExists(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// CheckNoIntents refuses a sharded router's state directory whose
// intents.log holds records. That file is the cross-pod intent journal
// the strict-mode routers of older builds kept; its records bracket
// cross-pod jobs, which only those builds can resolve or release. A
// missing file holds none, nor does one no longer than its 8-byte
// "SVCINT1\n" header, which every router of the other mode wrote.
// CheckNoIntents writes nothing.
func CheckNoIntents(dir string) error {
	path := filepath.Join(dir, "intents.log")
	data, err := readIfExists(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(data) > magicLen {
		return fmt.Errorf("%w: %s holds %d bytes of cross-pod intent records, written by a strict-mode router; release its cross-pod jobs with an older build",
			ErrUnsupportedFormat, path, len(data)-magicLen)
	}
	return nil
}

// eachFile reads dir, changing nothing, and calls visit with every name in
// it and what genOf makes of the name.
func eachFile(dir string, visit func(name string, gen uint64, snap, ok bool)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		gen, snap, ok := genOf(e.Name())
		visit(e.Name(), gen, snap, ok)
	}
	return nil
}

// scanDir returns the highest generation present in dir (0 when none) and
// removes leftover temporary files from an interrupted checkpoint.
func scanDir(dir string) (gen uint64, err error) {
	err = eachFile(dir, func(name string, g uint64, _, ok bool) {
		if ok {
			gen = max(gen, g)
		} else if strings.HasSuffix(name, ".tmp") {
			remove(filepath.Join(dir, name))
		}
	})
	if err != nil {
		return 0, fmt.Errorf("wal: read state dir: %w", err)
	}
	return gen, nil
}

// removeStale deletes every generation file but keep's: the older ones
// keep's snapshot supersedes and, in a mirror whose primary started over,
// newer ones from the timeline it no longer follows. Best-effort: a file
// left behind goes at the next call.
func removeStale(dir string, keep uint64) {
	eachFile(dir, func(name string, gen uint64, _, ok bool) {
		if ok && gen != keep {
			remove(filepath.Join(dir, name))
		}
	})
}

// genOf parses the name of a generation file: wal-<gen>.log, or
// snap-<gen>.snap (snap true).
func genOf(name string) (gen uint64, snap, ok bool) {
	for _, format := range []string{"wal-%d.log", "snap-%d.snap"} {
		if _, err := fmt.Sscanf(name, format, &gen); err == nil && name == fmt.Sprintf(format, gen) {
			return gen, format[0] == 's', true
		}
	}
	return 0, false, false
}

// newestGen returns the highest generation in dir that has a log or, with
// snap, a snapshot; 0 when none has.
func newestGen(dir string, snap bool) (gen uint64, err error) {
	err = eachFile(dir, func(_ string, g uint64, s, ok bool) {
		if ok && s == snap {
			gen = max(gen, g)
		}
	})
	return gen, err
}
