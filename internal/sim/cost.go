package sim

import "fmt"

// CostModel fixes the cycle charge of each event kind. One calibration,
// loosely derived from Haswell latencies, is used verbatim by every
// experiment (see DESIGN.md §7); no figure gets its own tuning.
type CostModel struct {
	// Op is the implicit charge per event for the surrounding non-memory
	// instructions (address arithmetic, compares, branches).
	Op uint64
	// L1Hit is a load or store that hits the thread's own cache.
	L1Hit uint64
	// Miss is a load or store serviced by the shared cache or memory.
	Miss uint64
	// RemoteDirty is a load or store serviced from another core's modified
	// line (cache-to-cache transfer plus writeback).
	RemoteDirty uint64
	// CASExtra is the additional charge of a locked read-modify-write over a
	// plain store (bus lock, store-buffer drain).
	CASExtra uint64
	// Fence is an explicit memory fence (or the ordering cost of a
	// sequentially consistent store on x86).
	Fence uint64
	// TxBegin/TxEnd are the HTM boundary instructions; TxAbort is the
	// rollback charge on top of the wasted work already on the clock.
	TxBegin, TxEnd, TxAbort uint64
	// AllocBase/FreeBase are the allocator's bookkeeping on top of its
	// shared-metadata access (which is charged as a CAS on a shared line and
	// is what makes the allocator a contention point). AllocContended is the
	// extra serialization paid when the metadata was last touched by another
	// core (the paper's 32-bit glibc malloc takes a lock). AllocLocal is the
	// bookkeeping of a per-thread arena or free pool.
	AllocBase, FreeBase, AllocContended, AllocLocal uint64
}

// DefaultCost is the calibrated model used by all experiments.
func DefaultCost() CostModel {
	return CostModel{
		Op:             3,
		L1Hit:          2,
		Miss:           40,
		RemoteDirty:    70,
		CASExtra:       18,
		Fence:          20,
		TxBegin:        14,
		TxEnd:          14,
		TxAbort:        12,
		AllocBase:      30,
		FreeBase:       12,
		AllocContended: 90,
		AllocLocal:     6,
	}
}

// Config describes the simulated machine. The default models the paper's
// testbed: an Intel i7-4770 with 4 cores, 2-way SMT (8 hardware threads),
// 32 KB L1s, RTM with an L1-bounded write set, and a 3.4 GHz clock.
type Config struct {
	// Threads is the number of hardware threads the workload will use.
	Threads int
	// Cores is the number of physical cores; threads are assigned to cores
	// round-robin, so threads beyond Cores share a core (SMT).
	Cores int
	// SMTFactor multiplies a thread's costs while its core sibling is also
	// running, modeling shared execution resources.
	SMTFactor float64
	// L1Lines is the per-thread cache capacity in 64-byte lines.
	L1Lines int
	// WriteSetLines and ReadSetLines bound a transaction's footprint; beyond
	// them the transaction takes a capacity abort.
	WriteSetLines, ReadSetLines int
	// Model names the transactional-hardware model (htmmodel.go): ModelRTM
	// (also the empty string) or ModelBoundedSet.
	Model string
	// BoundedReadLines and BoundedWriteLines are the ModelBoundedSet
	// budgets: tiny exact line sets held in dedicated storage, decoupled
	// from the L1. Ignored by ModelRTM.
	BoundedReadLines, BoundedWriteLines int
	// CyclesPerMs converts simulated cycles to milliseconds (clock rate).
	CyclesPerMs float64
	// Cost is the event cost model.
	Cost CostModel
	// Seed perturbs all per-thread random streams (workload determinism).
	Seed uint64
}

// Validate reports why the configuration cannot describe a machine: thread
// count out of the scheduler's 1..16 range, non-positive core count, cache
// or set bounds, or an unknown model name. New panics with this error, so
// callers constructing configs from user input should call it first.
func (cfg Config) Validate() error {
	if cfg.Threads <= 0 || cfg.Threads > 16 {
		return fmt.Errorf("sim: thread count %d out of range 1..16", cfg.Threads)
	}
	if cfg.Cores <= 0 {
		return fmt.Errorf("sim: core count %d must be positive", cfg.Cores)
	}
	if cfg.L1Lines <= 0 {
		return fmt.Errorf("sim: L1 capacity %d lines must be positive", cfg.L1Lines)
	}
	switch cfg.Model {
	case "", ModelRTM:
		if cfg.WriteSetLines <= 0 || cfg.ReadSetLines <= 0 {
			return fmt.Errorf("sim: rtm set bounds (write %d, read %d lines) must be positive",
				cfg.WriteSetLines, cfg.ReadSetLines)
		}
	case ModelBoundedSet:
		if cfg.BoundedWriteLines <= 0 || cfg.BoundedReadLines <= 0 {
			return fmt.Errorf("sim: bounded set budgets (write %d, read %d lines) must be positive",
				cfg.BoundedWriteLines, cfg.BoundedReadLines)
		}
	default:
		return fmt.Errorf("sim: unknown HTM model %q (want %q or %q)",
			cfg.Model, ModelRTM, ModelBoundedSet)
	}
	return nil
}

// DefaultConfig returns the i7-4770-like machine with n worker threads.
func DefaultConfig(n int) Config {
	return Config{
		Threads:       n,
		Cores:         4,
		SMTFactor:     1.55,
		L1Lines:       512,
		WriteSetLines: 448,
		ReadSetLines:  4096,
		// BoundedSet defaults are only consulted when Model is switched to
		// ModelBoundedSet; 16/16 is the FORTH TR's "handful of lines" scale.
		BoundedReadLines:  16,
		BoundedWriteLines: 16,
		CyclesPerMs:       3.4e6,
		Cost:              DefaultCost(),
		Seed:              1,
	}
}
