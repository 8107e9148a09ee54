package simtxn

import (
	"sync/atomic"

	"repro/internal/sim"
)

// NBTC commit mode (Cai, Wen, Scott — PAPERS.md): instead of publishing a
// captured footprint through the marker-word MultiCAS protocol (two CASes
// per word: claim, then release), the publication is deferred into ONE
// commit-time hardware transaction that validates every captured old value
// and applies every staged write as buffered stores. When the batch fits the
// machine's transactional footprint this collapses the 2N-CAS protocol into
// a single hardware commit; when it does not — a capacity abort, or the
// attempt budget burns on conflicts — publication falls back to the classic
// lock-free MultiCAS, so composed operations keep their nonblocking
// progress. A marked word met inside the batch still aborts the hardware
// attempt (§2.4: no helping under speculation) and is helped to decision
// between attempts, exactly as at the helping middle.

// nbtcAttempts bounds the hardware attempts per publication batch before
// NBTC yields to the classic MultiCAS.
const nbtcAttempts = 4

// nbtcOutcome reports how one NBTC publication batch ended.
type nbtcOutcome int

const (
	// nbtcCommitted: the whole batch validated and published in one
	// hardware transaction.
	nbtcCommitted nbtcOutcome = iota
	// nbtcMismatch: a captured old value changed under us — the footprint
	// is stale and the body must re-capture (same as a failed MultiCAS).
	nbtcMismatch
	// nbtcUnfit: the batch cannot commit in hardware (capacity, or the
	// attempt budget burned) — publish through the classic MultiCAS.
	nbtcUnfit
)

// NBTCStats counts NBTC publication outcomes, machine-wide. The counters are
// atomics, so a reader outside the run (a metrics endpoint, a test) never
// races the thread bodies' goroutines; reads are exact at quiescence (after
// Machine.Run returns).
type NBTCStats struct {
	// Batches is the number of publication batches committed as one
	// commit-time hardware transaction.
	Batches uint64
	// Mismatches is the number of batches that found a stale captured old
	// value and sent the operation back to re-capture.
	Mismatches uint64
	// Unfit is the number of batches that fell back to the classic
	// MultiCAS (capacity abort or burned attempt budget).
	Unfit uint64
}

type nbtcCounters struct {
	batches    atomic.Uint64
	mismatches atomic.Uint64
	unfit      atomic.Uint64
}

// nbtcPublish tries to publish the captured entries (pre-sorted by address)
// as one commit-time hardware transaction.
func (m *Manager) nbtcPublish(t *sim.Thread, ents []entry) nbtcOutcome {
	for attempt := 0; attempt < nbtcAttempts; attempt++ {
		var mismatch bool
		var pend sim.Addr
		st := t.Atomic(func() {
			for _, e := range ents {
				w := t.Load(e.addr)
				if w&markerBit != 0 {
					// An in-flight MultiCAS holds this word: abort and help
					// it to decision outside the transaction.
					pend = markerDesc(w)
					t.TxAbort(abortRetry)
				}
				if w != e.old {
					mismatch = true
					t.TxAbort(abortRetry)
				}
				if e.write {
					t.Store(e.addr, e.new)
				}
			}
		})
		switch {
		case st == sim.OK:
			m.nbtcStats.batches.Add(1)
			return nbtcCommitted
		case mismatch:
			m.nbtcStats.mismatches.Add(1)
			return nbtcMismatch
		case st == sim.AbortCapacity:
			// Deterministic on this machine state: the batch does not fit
			// the transactional footprint, so retrying cannot help.
			m.nbtcStats.unfit.Add(1)
			return nbtcUnfit
		case pend != 0:
			help(t, pend)
		}
		// Conflict (or a helped marker): retry the batch.
	}
	m.nbtcStats.unfit.Add(1)
	return nbtcUnfit
}

// WithNBTC switches the fallback's publication to the NBTC commit mode:
// captured footprints first try to commit as one commit-time hardware
// transaction and only publish through the marker-word MultiCAS when the
// batch does not fit (ablation A8's fourth arm). Set before use. Returns m.
func (m *Manager) WithNBTC(on bool) *Manager {
	m.nbtc = on
	return m
}

// NBTC returns the manager's NBTC outcome counters.
func (m *Manager) NBTC() NBTCStats {
	return NBTCStats{
		Batches:    m.nbtcStats.batches.Load(),
		Mismatches: m.nbtcStats.mismatches.Load(),
		Unfit:      m.nbtcStats.unfit.Load(),
	}
}
