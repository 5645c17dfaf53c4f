//go:build !race

package elgamal

const raceEnabled = false
