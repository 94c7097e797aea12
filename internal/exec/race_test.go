//go:build race

package exec

// Under the race detector sync.Pool drops a quarter of what is put back,
// so a statement's allocation count is not exact there.
func init() { raceEnabled = true }
