// Command svcwal prints a state directory's snapshot and write-ahead log
// in legible form. Both are binary (docs/ALGORITHMS.md §9), so `strings
// wal-1.log` and `jq . snap-2.snap` no longer show them; this does:
//
//	svcwal /var/lib/svcd        # the newest snap-<gen>.snap and
//	                            # wal-<gen>.log; for a sharded router's
//	                            # directory, its intents.log
//	svcwal /var/lib/svcd/pod0   # one pod of a sharded router
//	svcwal state /var/lib/svcd  # the newest snapshot's whole state, as
//	                            # the JSON GET /v1/state serves
//
// For the snapshot the output is the file name with its meta record and a
// one-line summary: format, bytes, jobs, bindings, machines and links
// down. For a log it is the file name with the log's meta record, then
// one JSON line per frame — {"off":…,"len":…,"format":"json|bin1",
// …record fields…}, the fields being those of the legacy JSON records
// whatever format the frame is in — then a one-line summary: records,
// clean length, epoch, torn-tail bytes if any. svcwal is read-only: it
// opens nothing for writing, never truncates, and is safe beside a
// running svcd.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "svcwal:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	render := wal.Inspect
	if len(args) == 2 && args[0] == "state" {
		render, args = wal.WriteState, args[1:]
	}
	if len(args) != 1 || args[0] == "" || args[0][0] == '-' {
		return fmt.Errorf("usage: svcwal [state] <state-dir>")
	}
	w := bufio.NewWriter(out)
	if err := render(w, args[0]); err != nil {
		return err
	}
	return w.Flush()
}
