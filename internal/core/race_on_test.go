//go:build race

package core

// raceEnabled: under -race sync.Pool drops a random share of what is put
// back, so a pooled table is sometimes allocated anew.
const raceEnabled = true
