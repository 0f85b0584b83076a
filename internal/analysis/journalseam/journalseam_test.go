package journalseam_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/journalseam"
)

func TestJournalseam(t *testing.T) {
	analysistest.Run(t, "testdata", journalseam.Analyzer,
		"repro/internal/topology", "repro/internal/core", "repro/internal/shard",
		"repro/internal/replica", "repro/internal/wal", "consumer")
}
