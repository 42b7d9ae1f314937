//go:build !race

package htmlx

const raceEnabled = false
