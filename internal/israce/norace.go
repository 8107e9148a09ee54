//go:build !race

package israce

// Enabled reports whether the build has the race detector enabled.
const Enabled = false
