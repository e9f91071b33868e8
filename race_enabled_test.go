//go:build race

package natix_test

// The race detector makes sync.Pool drop a random quarter of its Puts, so
// allocation-counting tests see pooled buffers allocated again.
func init() { raceEnabled = true }
