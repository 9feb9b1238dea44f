//go:build race

package ckks

// raceEnabled guards allocation-count assertions: under the race
// detector sync.Pool intentionally drops a fraction of Puts, so pooled
// paths re-allocate nondeterministically.
const raceEnabled = true
