package simds

import (
	"testing"

	"repro/internal/simspec"
	"repro/internal/speculate"
)

// forPolicies runs a concurrent correctness test once per speculation
// policy the simulated structures must stay correct under: the simulator's
// default (backoff, per-thread adaptive disable) and the runtime's adaptive
// policy (fail-fast, commit-ratio disable, skip windows).
func forPolicies(t *testing.T, test func(t *testing.T, pol speculate.Policy)) {
	for _, c := range []struct {
		name string
		pol  speculate.Policy
	}{
		{"default", simspec.DefaultPolicy()},
		{"adaptive", speculate.Adaptive()},
	} {
		t.Run(c.name, func(t *testing.T) { test(t, c.pol) })
	}
}
