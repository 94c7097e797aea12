//go:build race

package core

// Under the race detector sync.Pool drops a quarter of what is put back,
// so a traced statement's allocation count is not exact there.
func init() { raceEnabled = true }
