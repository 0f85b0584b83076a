// Command svcwal prints a state directory's write-ahead log in legible
// form. Log records are binary (docs/ALGORITHMS.md §9), so `strings
// wal-1.log` no longer shows them; this does:
//
//	svcwal /var/lib/svcd        # the newest wal-<gen>.log; for a sharded
//	                            # router's directory, its intents.log
//	svcwal /var/lib/svcd/pod0   # one pod of a sharded router
//
// Output is the file name with the log's meta record, then one JSON line
// per frame — {"off":…,"len":…,"format":"json|bin1", …record fields…},
// the fields being those of the legacy JSON records whatever format the
// frame is in — then a one-line summary: records, clean length, epoch,
// torn-tail bytes if any. svcwal is read-only: it opens nothing for
// writing, never truncates, and is safe beside a running svcd.
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
	if len(args) != 1 || args[0] == "" || args[0][0] == '-' {
		return fmt.Errorf("usage: svcwal <state-dir>")
	}
	w := bufio.NewWriter(out)
	if err := wal.Inspect(w, args[0]); err != nil {
		return err
	}
	return w.Flush()
}
