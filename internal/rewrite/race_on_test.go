//go:build race

package rewrite

// raceEnabled skips the allocation count: under the race detector
// sync.Pool drops a random share of what it is handed, so a call may
// allocate the buffers an earlier call would have lent it.
const raceEnabled = true
