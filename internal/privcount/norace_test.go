//go:build !race

package privcount

const raceEnabled = false
