//go:build race

package seed

const raceEnabled = true
