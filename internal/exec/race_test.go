//go:build race

package exec

// Under the race detector sync.Pool drops pooled items at random, so a
// work order's scratch is not reliably warm.
func init() { raceEnabled = true }
