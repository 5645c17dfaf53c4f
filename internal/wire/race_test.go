//go:build race

package wire

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of what it is handed, so allocation counts through a pool vary.
const raceEnabled = true
