//go:build race

package htmlx

const raceEnabled = true
