package goroutinelife_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/goroutinelife"
)

func TestGoroutineLife(t *testing.T) {
	analysistest.Run(t, "testdata", goroutinelife.Analyzer, "goroutinelife")
}
