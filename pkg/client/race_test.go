//go:build race

package client

// Under the race detector sync.Pool drops a quarter of what is put back,
// so a pooled stream's allocation count is not exact there.
func init() { raceEnabled = true }
