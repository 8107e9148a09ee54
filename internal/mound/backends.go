package mound

import (
	"repro/internal/htm"
	"repro/internal/mcas"
	"repro/internal/speculate"
)

// mcasBackend is the baseline substrate: node words are mcas.Words and the
// multi-word operations run the descriptor-based software protocol, costing
// up to five CAS instructions each — the latency PTO removes.
type mcasBackend struct {
	words []*mcas.Word
}

func newMCASBackend(size int) *mcasBackend {
	b := &mcasBackend{words: make([]*mcas.Word, size)}
	for i := range b.words {
		b.words[i] = mcas.NewWord(0)
	}
	return b
}

func (b *mcasBackend) load(id int) uint64 { return b.words[id].Load() }

func (b *mcasBackend) cas(id int, old, new uint64) bool { return b.words[id].CAS(old, new) }

func (b *mcasBackend) dcss(cmp int, expect uint64, tgt int, old, new uint64) bool {
	return mcas.DCSS(b.words[cmp], expect, b.words[tgt], old, new)
}

func (b *mcasBackend) dcas(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	return mcas.DCAS(b.words[id1], o1, n1, b.words[id2], o2, n2)
}

// DefaultAttempts is the paper's tuned transaction retry budget for the
// Mound's DCAS/DCSS sub-operations ("ultimately settling on a value of
// four... used for all DCASes, whether at the (high contention) root of the
// Mound, or at leaves").
const DefaultAttempts = 4

// ptoBackend runs each DCAS/DCSS as a prefix transaction — two or three
// plain loads, a comparison, and one or two buffered stores, with no CAS and
// no descriptor traffic — retried up to attempts times before falling back
// to htm.MultiCAS, the domain's own descriptor protocol, over the same
// words. Mound words embed a version counter, so value-based CAS is
// ABA-free.
type ptoBackend struct {
	domain   *htm.Domain
	words    []htm.Var[uint64]
	attempts int
	site     *speculate.Site
}

func newPTOBackend(size, attempts int) *ptoBackend {
	return newPTOBackendIn(htm.NewDomain(0, 0), size, attempts)
}

func newPTOBackendIn(d *htm.Domain, size, attempts int) *ptoBackend {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	b := &ptoBackend{domain: d, words: make([]htm.Var[uint64], size), attempts: attempts}
	b.withPolicy(speculate.Fixed(0))
	for i := range b.words {
		b.words[i].Init(b.domain, 0)
	}
	return b
}

func (b *ptoBackend) withPolicy(p speculate.Policy) {
	b.site = p.Site("mound/dcas", 1,
		speculate.Level{Name: "pto", Attempts: b.attempts, RetryExplicit: true})
}

// NewPTO returns an empty PTO-accelerated mound (≤ 0 arguments select the
// defaults).
func NewPTO(maxDepth, attempts int) *Mound {
	m := newMound(maxDepth)
	m.be = newPTOBackend(m.size, attempts)
	return m
}

// WithPolicy replaces the speculation policy governing the DCAS retry loop
// of a PTO-backed mound; it is a no-op for the baseline. The default,
// speculate.Fixed(0), reproduces the historical behavior: every DCAS makes
// exactly `attempts` tries — explicit aborts included — then falls back to
// htm.MultiCAS. Returns m for chaining.
func (m *Mound) WithPolicy(p speculate.Policy) *Mound {
	if b, ok := m.be.(*ptoBackend); ok {
		b.withPolicy(p)
	}
	return m
}

// Domain exposes the transactional domain of a PTO-backed mound, or nil for
// the baseline (for tests and diagnostics).
func (m *Mound) Domain() *htm.Domain {
	if b, ok := m.be.(*ptoBackend); ok {
		return b.domain
	}
	return nil
}

func (b *ptoBackend) load(id int) uint64 { return htm.Load(nil, &b.words[id]) }

func (b *ptoBackend) cas(id int, old, new uint64) bool {
	return htm.CAS(nil, &b.words[id], old, new)
}

func (b *ptoBackend) dcss(cmp int, expect uint64, tgt int, old, new uint64) bool {
	return b.dcas(cmp, expect, expect, tgt, old, new)
}

func (b *ptoBackend) dcas(id1 int, o1, n1 uint64, id2 int, o2, n2 uint64) bool {
	w1, w2 := &b.words[id1], &b.words[id2]
	// Prefix transaction: the whole double-word update as plain loads,
	// branches, and buffered stores (§2.3's strength reduction).
	r := b.site.Begin(b.domain)
	for r.Next(0) {
		var result bool
		st := r.Try(func(tx *htm.Tx) {
			if htm.Load(tx, w1) != o1 || htm.Load(tx, w2) != o2 {
				result = false
				return
			}
			htm.Store(tx, w1, n1)
			htm.Store(tx, w2, n2)
			result = true
		})
		if st == htm.Committed {
			return result
		}
	}
	r.Fallback()
	// A DCSS guard (o1 == n1) is a validation-only leg. A MultiCAS killed by
	// a colliding writer reports false like a mismatch; every caller
	// re-reads and retries.
	return htm.MultiCAS(htm.NewUpdate(w1, o1, n1), htm.NewUpdate(w2, o2, n2))
}
