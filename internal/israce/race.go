//go:build race

// Package israce reports whether the race detector is compiled in. Tests
// that pin allocation counts consult it: under -race the runtime allocates
// on its own account and sync.Pool drops values at random, so the pins would
// measure the detector, not the code.
package israce

// Enabled reports whether the build has the race detector enabled.
const Enabled = true
