//go:build !race

package ckks

// See race_enabled_test.go.
const raceEnabled = false
