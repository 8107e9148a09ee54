package simspec

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestAbortReasonLabelParity is the golden parity pin between the two
// substrates' abort taxonomies: the simulator's Status strings and the
// runtime telemetry's Prometheus reason labels must stay identical, or
// dashboards joining modeled and wall-clock abort mixes silently split.
func TestAbortReasonLabelParity(t *testing.T) {
	golden := []struct {
		status sim.Status
		label  string
	}{
		{sim.AbortConflict, telemetry.ReasonConflict},
		{sim.AbortCapacity, telemetry.ReasonCapacity},
		{sim.AbortExplicit, telemetry.ReasonExplicit},
	}
	for _, g := range golden {
		if got := g.status.String(); got != g.label {
			t.Errorf("sim status %d renders %q, telemetry label is %q", int(g.status), got, g.label)
		}
	}
	// "ok" is a status, not an abort reason: no reason label may claim it.
	for _, label := range []string{telemetry.ReasonConflict, telemetry.ReasonCapacity, telemetry.ReasonExplicit} {
		if label == sim.OK.String() {
			t.Errorf("abort reason label %q collides with the commit status", label)
		}
	}
}
