// Package tune is the shell of the self-tuning controller. Its laws acted 0
// times on measured traffic (EXPERIMENTS A11) and are gone; nothing here acts.
// Kept only because benchmark/probes.go:487 builds a controller and steps it,
// and benchmark/run.go:636 subtracts the counters of server.ShardStats.Tune.
package tune

import (
	"time"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// Config is the six fields benchmark/probes.go:487 names; all are ignored.
type Config struct {
	Registry   *telemetry.Registry
	SitePrefix string
	Interval   time.Duration
	Domain     interface{ Stripes() int }
	MinStripes int
	Budgets    *speculate.Actuator
}

// Controller has no state and no goroutine.
type Controller struct{}

// New returns a controller that does nothing.
func New(Config) *Controller { return &Controller{} }

// Step returns 0: there is no law to fire.
func (*Controller) Step() int { return 0 }

// Snapshot is always zero.
type Snapshot struct {
	Stripes       int    `json:"-"`
	RemapActions  uint64 `json:"remap_actions"`
	BatchActions  uint64 `json:"batch_actions"`
	BudgetActions uint64 `json:"budget_actions"`
	Actions       uint64 `json:"controller_actions"`
}
