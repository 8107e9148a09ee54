// Package tune closes the telemetry→policy loop: a per-domain background
// controller that reads interval-delta snapshots from a telemetry registry
// and actuates two control laws against the runtime it observes.
//
//   - Batch sizing (law B): the epoch batcher's chunk size k follows the
//     abort mix by AIMD — capacity aborts (deterministic footprint
//     overflows, the signature of chunks outgrowing the speculation
//     substrate) halve k, intervals of clean commits grow it by one.
//
//   - Budget retuning (law C): per-level speculation budgets move within
//     their declared ceilings through speculate.Actuator. A fast level
//     whose commit ratio collapses gets fewer attempts (reach the fallback
//     sooner); recovery restores them. A helping middle level that pays
//     helping costs without rescuing descriptors (no helped_descs while
//     attempts burn) has its help budget stepped toward zero; renewed
//     rescue value under fallback pressure steps it back up.
//
// Every law is threshold-gated on a minimum interval op count so an idle
// domain is never retuned on noise, and every actuation is counted — the
// controller's visible behavior is part of its contract (A11 asserts
// controller_actions > 0 under the phase-changing adversary, and the law
// tests pin exact action sequences against synthetic deltas).
//
// The controller is deliberately snapshot-driven rather than event-driven:
// it owns three reusable snapshot buffers (telemetry.SnapshotInto /
// DeltaInto), so a 10ms cadence adds no allocation pressure to the
// workload it is steering.
package tune

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/speculate"
	"repro/internal/telemetry"
)

// BatchSetter is the batch-size actuation surface (law B); the server's
// epoch batcher implements it. SetBatchK clamps and returns the effective
// value.
type BatchSetter interface {
	BatchK() int
	SetBatchK(n int) int
}

// Config parameterizes one controller. The zero value of every threshold
// selects the default noted on the field; actuation surfaces left nil
// disable their law.
type Config struct {
	// Registry is the telemetry source; required.
	Registry *telemetry.Registry
	// SitePrefix restricts the controller's view to sites whose name
	// starts with the prefix (a server shard passes "shardN/"); empty
	// observes every site.
	SitePrefix string
	// Interval is the evaluation cadence. Non-positive disables the
	// background goroutine: the owner (a test, a simulator harness) calls
	// Step on its own clock.
	Interval time.Duration

	// Domain and MinStripes are ignored.
	// Kept only because benchmark/probes.go:488 sets them.
	Domain     interface{ Stripes() int }
	MinStripes int

	// Batch is law B's actuation surface; nil disables batch adaptation.
	Batch BatchSetter
	// CapacityHigh is the capacity-aborts-per-attempt rate above which k
	// halves (default 0.02).
	CapacityHigh float64
	// GrowRatio is the commit ratio at or above which k grows by one
	// (default 0.9).
	GrowRatio float64
	// MinBatch/MaxBatch bound law B (defaults 1 and 256).
	MinBatch, MaxBatch int

	// Budgets is law C's actuation surface; nil disables budget retuning.
	Budgets *speculate.Actuator
	// ShrinkRatio is the fast-level commit ratio below which its attempt
	// budget steps down (default 0.3); RestoreRatio the ratio at or above
	// which it steps back up toward the static ceiling (default 0.8).
	ShrinkRatio, RestoreRatio float64

	// MinOps gates every law: an interval with fewer attempts than this
	// is ignored (default 64).
	MinOps uint64

	// Cooldown is the per-law hysteresis guard: after a law actuates, that
	// law sits out the next Cooldown evaluated intervals (idle intervals
	// below MinOps don't count), so one pressure spike cannot thrash an
	// actuator on consecutive ticks while its effect is still propagating.
	// Each law cools down independently — a batch action does not silence
	// the budget law. 0 (the default) disables the guard: every
	// interval is eligible, the behavior the law-trajectory tests pin.
	Cooldown int
}

func (cfg Config) withDefaults() Config {
	if cfg.CapacityHigh <= 0 {
		cfg.CapacityHigh = 0.02
	}
	if cfg.GrowRatio <= 0 {
		cfg.GrowRatio = 0.9
	}
	if cfg.MinBatch <= 0 {
		cfg.MinBatch = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.ShrinkRatio <= 0 {
		cfg.ShrinkRatio = 0.3
	}
	if cfg.RestoreRatio <= 0 {
		cfg.RestoreRatio = 0.8
	}
	if cfg.MinOps == 0 {
		cfg.MinOps = 64
	}
	return cfg
}

// Controller is one domain's self-tuning loop. Construct with New, start
// the background cadence with Start (no-op when Interval <= 0), and stop
// with Stop. Step evaluates one interval synchronously and is how the
// deterministic law tests drive the controller on a fake clock.
type Controller struct {
	cfg Config

	mu               sync.Mutex // serializes Step; owns the buffers below
	prev, cur, delta telemetry.Snapshot
	// Per-law cooldown counters: a law runs only at 0 and is reset to
	// cfg.Cooldown when it actuates; non-idle intervals decrement.
	batchCool, budgetCool int

	batchActions  atomic.Uint64
	budgetActions atomic.Uint64

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// New returns a controller over cfg, seeding its baseline snapshot so the
// first interval measures activity after construction.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.cfg.Registry.SnapshotInto(&c.prev)
	return c
}

// Start launches the background cadence. With a non-positive Interval the
// controller stays manual (Step) and Start is a no-op.
func (c *Controller) Start() {
	if c.cfg.Interval <= 0 || !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Step()
			}
		}
	}()
}

// Stop halts the background cadence and waits for it. Safe to call more
// than once, and with or without a prior Start.
func (c *Controller) Stop() {
	c.once.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// interval is one evaluation window's aggregated counters, split by level
// label the way the speculation drivers register their sites.
type interval struct {
	attempts, commits           uint64
	capacity, fallbacks, helped uint64
	fastAttempts, fastCommits   uint64
	midAttempts, midHelped      uint64
}

// Step evaluates one interval: snapshot, delta against the previous
// snapshot, apply the laws. It returns how many actuations fired.
func (c *Controller) Step() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Registry.SnapshotInto(&c.cur)
	c.cur.DeltaInto(&c.prev, &c.delta)
	c.prev, c.cur = c.cur, c.prev

	var iv interval
	for i := range c.delta.Sites {
		s := &c.delta.Sites[i]
		if !strings.HasPrefix(s.Name, c.cfg.SitePrefix) {
			continue
		}
		iv.attempts += s.Attempts
		iv.commits += s.Commits
		iv.capacity += s.Capacity
		iv.fallbacks += s.Fallbacks
		iv.helped += s.Helped
		switch s.Level {
		case "middle":
			iv.midAttempts += s.Attempts
			iv.midHelped += s.Helped
		default: // "fast" or the unlabeled single-level site
			iv.fastAttempts += s.Attempts
			iv.fastCommits += s.Commits
		}
	}
	if iv.attempts < c.cfg.MinOps {
		return 0
	}
	actions := 0
	if c.batchCool > 0 {
		c.batchCool--
	} else if n := c.lawBatch(iv); n > 0 {
		c.batchCool = c.cfg.Cooldown
		actions += n
	}
	if c.budgetCool > 0 {
		c.budgetCool--
	} else if n := c.lawBudgets(iv); n > 0 {
		c.budgetCool = c.cfg.Cooldown
		actions += n
	}
	return actions
}

// lawBatch is law B: AIMD on the epoch batcher's chunk size.
func (c *Controller) lawBatch(iv interval) int {
	b := c.cfg.Batch
	if b == nil {
		return 0
	}
	k := b.BatchK()
	capRate := float64(iv.capacity) / float64(iv.attempts)
	ratio := float64(iv.commits) / float64(iv.attempts)
	switch {
	case capRate > c.cfg.CapacityHigh && k > c.cfg.MinBatch:
		nk := k / 2
		if nk < c.cfg.MinBatch {
			nk = c.cfg.MinBatch
		}
		b.SetBatchK(nk)
	case capRate <= c.cfg.CapacityHigh && ratio >= c.cfg.GrowRatio && k < c.cfg.MaxBatch:
		b.SetBatchK(k + 1)
	default:
		return 0
	}
	c.batchActions.Add(1)
	return 1
}

// lawBudgets is law C: attempt budgets follow the fast level's commit
// ratio, the middle level's help budget follows rescue value (helped_descs)
// against helping cost (attempts burned at the middle level).
func (c *Controller) lawBudgets(iv interval) int {
	a := c.cfg.Budgets
	if a == nil {
		return 0
	}
	actions := 0
	if iv.fastAttempts >= c.cfg.MinOps {
		ratio := float64(iv.fastCommits) / float64(iv.fastAttempts)
		cur := a.Attempts(0)
		if ratio < c.cfg.ShrinkRatio && cur > 1 {
			a.SetAttempts(0, cur-1)
			actions++
		} else if ratio >= c.cfg.RestoreRatio {
			if a.SetAttempts(0, cur+1) != cur {
				actions++
			}
		}
	}
	// The helping level, if the composition has one, is the last one with
	// a static help budget.
	for lvl := a.Len() - 1; lvl > 0; lvl-- {
		if !a.HelpCapable(lvl) {
			continue
		}
		cur := a.HelpBudgetAt(lvl)
		switch {
		case iv.midAttempts >= c.cfg.MinOps && iv.midHelped == 0 && cur > 0:
			// Helping cost with no rescue value: step toward zero.
			a.SetHelpBudget(lvl, cur-1)
			actions++
		case iv.midHelped > 0 && iv.fallbacks > 0:
			// Descriptors are being rescued and the fallback is still
			// loaded: step the budget back up (clamped at the ceiling).
			if a.SetHelpBudget(lvl, cur+1) != cur {
				actions++
			}
		}
		break
	}
	if actions > 0 {
		c.budgetActions.Add(uint64(actions))
	}
	return actions
}

// Snapshot is the controller's externally visible state, served by the
// shard server's /statz.
type Snapshot struct {
	BatchK int `json:"batch_k,omitempty"`
	// Stripes and RemapActions are always 0.
	// Kept only because benchmark/run.go:637 and run.go:640 read them.
	Stripes       int                               `json:"-"`
	RemapActions  uint64                            `json:"remap_actions"`
	BatchActions  uint64                            `json:"batch_actions"`
	BudgetActions uint64                            `json:"budget_actions"`
	Actions       uint64                            `json:"controller_actions"`
	Budgets       []speculate.ActuatorLevelSnapshot `json:"budgets,omitempty"`
}

// Snapshot reports the controller's current actuation state and counters.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		BatchActions:  c.batchActions.Load(),
		BudgetActions: c.budgetActions.Load(),
	}
	s.Actions = s.BatchActions + s.BudgetActions
	if c.cfg.Batch != nil {
		s.BatchK = c.cfg.Batch.BatchK()
	}
	if c.cfg.Budgets != nil {
		s.Budgets = c.cfg.Budgets.Snapshot()
	}
	return s
}
