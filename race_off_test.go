//go:build !race

package propack

const raceEnabled = false
