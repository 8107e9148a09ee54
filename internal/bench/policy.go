package bench

import (
	"repro/internal/simspec"
	"repro/internal/speculate"
)

// The benchmarks run every structure — real-runtime and simulated — under
// one speculate.Policy when the caller installs one (cmd/ptobench's
// -policy/-attempts flags). With no override each substrate keeps its own
// default: speculate.Fixed(0) for the real runtime, simspec.DefaultPolicy
// for the simulator. Nothing in the environment changes either, so a
// modeled figure depends only on the build and the flags.

var (
	basePol speculate.Policy
	havePol bool
)

// SetPolicy installs p as the speculation policy for every subsequently
// built benchmark structure, on both substrates.
func SetPolicy(p speculate.Policy) {
	basePol, havePol = p, true
}

// simPolicy is the policy simulated structures are built with.
func simPolicy() speculate.Policy {
	if havePol {
		return basePol
	}
	return simspec.DefaultPolicy()
}

// realPolicy is the policy real-runtime structures are built with.
func realPolicy() speculate.Policy {
	if havePol {
		return basePol
	}
	return speculate.Fixed(0)
}

// simPolicyAttempts is simPolicy with every level's attempt budget
// overridden to n — the retry-budget sweeps of A1 and A2.
func simPolicyAttempts(n int) speculate.Policy {
	p := simPolicy()
	p.Attempts = n
	return p
}
