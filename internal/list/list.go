// Package list implements Harris's lock-free sorted linked list — the
// archetypal marking-based nonblocking set, which the paper cites (§2.3,
// [14]) as the origin of the mark-then-snip discipline — and a
// PTO-accelerated variant, applying §5's suggestion that PTO's
// transformations extend to any algorithm built on marking.
//
// The baseline marks a victim's next pointer (logical deletion) and then
// snips it out with a second CAS, with concurrent traversals helping to
// snip marked nodes they pass. The PTO removal performs the mark and the
// unlink as one prefix transaction — the intermediate marked-but-linked
// state never becomes visible, so no traversal ever needs to help — and
// falls back to the original two-phase protocol on abort. Insertion's
// prefix transaction validates the predecessor window found by the search
// and links the node with a plain store.
//
// As in internal/skiplist, (next, marked) pairs are boxed behind atomic
// pointers (the standard Go substitute for pointer tagging), which also
// rules out ABA on the snip CASes.
//
// simds.SimList is the same list on modeled words (E1). Unlike the MS
// queue, the two are not instantiations of one generic source: its
// traversal would make an indirect call per hop, which costs the PTO and
// composed paths more than their bound (EXPERIMENTS "Method notes").
package list

import (
	"math"
	"sync/atomic"

	"repro/internal/htm"
	"repro/internal/speculate"
)

const (
	headKey = math.MinInt64
	tailKey = math.MaxInt64
)

// DefaultAttempts is the transaction retry budget for the PTO variant.
const DefaultAttempts = 3

type box struct {
	n      *node
	marked bool
}

type node struct {
	key  int64
	next atomic.Pointer[box]
}

// Set is the lock-free baseline sorted-list set.
type Set struct {
	head *node
}

// New returns an empty set.
func New() *Set {
	tail := &node{key: tailKey}
	tail.next.Store(&box{})
	head := &node{key: headKey}
	head.next.Store(&box{n: tail})
	return &Set{head: head}
}

// search returns the unmarked window (pred, curr) with pred.key < key ≤
// curr.key, snipping marked nodes on the way, plus the box observed in
// pred.next for identity-validated CAS.
func (s *Set) search(key int64) (pred, curr *node, pb *box) {
retry:
	for {
		pred = s.head
		pb = pred.next.Load()
		if pb.marked {
			continue retry
		}
		curr = pb.n
		for {
			cb := curr.next.Load()
			for cb.marked {
				if !pred.next.CompareAndSwap(pb, &box{n: cb.n}) {
					continue retry
				}
				pb = pred.next.Load()
				if pb.marked {
					continue retry
				}
				curr = pb.n
				cb = curr.next.Load()
			}
			if curr.key < key {
				pred = curr
				pb = cb
				curr = cb.n
			} else {
				return
			}
		}
	}
}

// Contains reports membership (wait-free traversal).
func (s *Set) Contains(key int64) bool {
	curr := s.head.next.Load().n
	for curr.key < key {
		curr = curr.next.Load().n
	}
	if curr.key != key {
		return false
	}
	return !curr.next.Load().marked
}

// Insert adds key, reporting false if present.
func (s *Set) Insert(key int64) bool {
	if key == headKey || key == tailKey {
		panic("list: key out of range")
	}
	for {
		pred, curr, pb := s.search(key)
		if curr.key == key {
			return false
		}
		n := &node{key: key}
		n.next.Store(&box{n: curr})
		if pred.next.CompareAndSwap(pb, &box{n: n}) {
			return true
		}
	}
}

// Remove deletes key, reporting false if absent. Marking linearizes the
// removal; the snip is physical cleanup.
func (s *Set) Remove(key int64) bool {
	for {
		pred, curr, pb := s.search(key)
		if curr.key != key {
			return false
		}
		cb := curr.next.Load()
		if cb.marked {
			return false
		}
		if !curr.next.CompareAndSwap(cb, &box{n: cb.n, marked: true}) {
			continue
		}
		if !pred.next.CompareAndSwap(pb, &box{n: cb.n}) {
			s.search(key) // let the helper traversal snip it
		}
		return true
	}
}

// Len counts unmarked nodes (O(n); tests and examples).
func (s *Set) Len() int {
	n := 0
	for curr := s.head.next.Load().n; curr.key != tailKey; {
		b := curr.next.Load()
		if !b.marked {
			n++
		}
		curr = b.n
	}
	return n
}

// Keys returns the unmarked keys in order (O(n); tests and examples).
func (s *Set) Keys() []int64 {
	var out []int64
	for curr := s.head.next.Load().n; curr.key != tailKey; {
		b := curr.next.Load()
		if !b.marked {
			out = append(out, curr.key)
		}
		curr = b.n
	}
	return out
}

// PTOSet is the PTO-accelerated sorted-list set.
type PTOSet struct {
	domain   *htm.Domain
	head     *pnode
	attempts int

	insSite *speculate.Site
	rmSite  *speculate.Site
}

type pbox struct {
	n      *pnode
	marked bool
}

type pnode struct {
	key  int64
	next htm.Var[*pbox]
}

// NewPTO returns an empty PTO-accelerated set in its own domain (attempts
// ≤ 0 selects DefaultAttempts); see NewPTOIn for composition.
func NewPTO(attempts int) *PTOSet {
	return NewPTOIn(htm.NewDomain(0, 0), attempts)
}

// WithPolicy replaces the speculation policy governing the retry loops. The
// default, speculate.Fixed(0), reproduces the historical behavior: every
// attempt re-searches, explicit (view-changed) aborts consume an attempt,
// and the original single-CAS / mark-then-snip protocol runs after
// `attempts` tries. Returns s for chaining.
func (s *PTOSet) WithPolicy(p speculate.Policy) *PTOSet {
	lvl := speculate.Level{Name: "pto", Attempts: s.attempts, RetryExplicit: true}
	s.insSite = p.Site("list/insert", 1, lvl)
	s.rmSite = p.Site("list/remove", 1, lvl)
	return s
}

// Domain exposes the transactional domain (for tests and diagnostics).
func (s *PTOSet) Domain() *htm.Domain { return s.domain }

func (s *PTOSet) search(key int64) (pred, curr *pnode, pb *pbox) {
retry:
	for {
		pred = s.head
		pb = htm.Load(nil, &pred.next)
		if pb.marked {
			continue retry
		}
		curr = pb.n
		for {
			cb := htm.Load(nil, &curr.next)
			for cb.marked {
				if !htm.CAS(nil, &pred.next, pb, &pbox{n: cb.n}) {
					continue retry
				}
				pb = htm.Load(nil, &pred.next)
				if pb.marked {
					continue retry
				}
				curr = pb.n
				cb = htm.Load(nil, &curr.next)
			}
			if curr.key < key {
				pred = curr
				pb = cb
				curr = cb.n
			} else {
				return
			}
		}
	}
}

// Contains reports membership.
func (s *PTOSet) Contains(key int64) bool {
	curr := htm.Load(nil, &s.head.next).n
	for curr.key < key {
		curr = htm.Load(nil, &curr.next).n
	}
	if curr.key != key {
		return false
	}
	return !htm.Load(nil, &curr.next).marked
}

// Insert adds key, reporting false if present.
func (s *PTOSet) Insert(key int64) bool {
	if key == headKey || key == tailKey {
		panic("list: key out of range")
	}
	n := &pnode{key: key}
	n.next.Init(s.domain, nil)
	r := s.insSite.Begin(s.domain)
	for {
		pred, curr, pb := s.search(key)
		if curr.key == key {
			return false
		}
		htm.Store(nil, &n.next, &pbox{n: curr})
		if !r.Next(0) {
			// Fallback: the original single-CAS link.
			if htm.CAS(nil, &pred.next, pb, &pbox{n: n}) {
				r.Fallback()
				return true
			}
			continue
		}
		st := r.Try(func(tx *htm.Tx) {
			if htm.Load(tx, &pred.next) != pb {
				tx.Abort(1)
			}
			htm.Store(tx, &pred.next, &pbox{n: n})
		})
		if st == htm.Committed {
			return true
		}
	}
}

// Remove deletes key, reporting false if absent. The prefix transaction
// marks and unlinks in one atomic step: the marked-but-linked intermediate
// state of the original protocol never exists, so no traversal ever helps.
func (s *PTOSet) Remove(key int64) bool {
	r := s.rmSite.Begin(s.domain)
	for {
		pred, curr, pb := s.search(key)
		if curr.key != key {
			return false
		}
		if !r.Next(0) {
			r.Fallback()
			return s.removeFallback(key, pred, curr, pb)
		}
		var removed bool
		st := r.Try(func(tx *htm.Tx) {
			if htm.Load(tx, &pred.next) != pb {
				tx.Abort(1)
			}
			cb := htm.Load(tx, &curr.next)
			if cb.marked {
				removed = false
				return
			}
			htm.Store(tx, &curr.next, &pbox{n: cb.n, marked: true})
			htm.Store(tx, &pred.next, &pbox{n: cb.n})
			removed = true
		})
		if st == htm.Committed {
			return removed
		}
	}
}

// removeFallback is the original two-phase mark-then-snip.
func (s *PTOSet) removeFallback(key int64, pred, curr *pnode, pb *pbox) bool {
	for {
		cb := htm.Load(nil, &curr.next)
		if cb.marked {
			return false
		}
		if htm.CAS(nil, &curr.next, cb, &pbox{n: cb.n, marked: true}) {
			if !htm.CAS(nil, &pred.next, pb, &pbox{n: cb.n}) {
				s.search(key)
			}
			return true
		}
		// The window may have shifted; re-validate it.
		pred, curr, pb = s.search(key)
		if curr.key != key {
			return false
		}
	}
}

// Len counts unmarked nodes (O(n); tests and examples).
func (s *PTOSet) Len() int {
	n := 0
	for curr := htm.Load(nil, &s.head.next).n; curr.key != tailKey; {
		b := htm.Load(nil, &curr.next)
		if !b.marked {
			n++
		}
		curr = b.n
	}
	return n
}

// Keys returns the unmarked keys in order (O(n); tests and examples).
func (s *PTOSet) Keys() []int64 {
	var out []int64
	for curr := htm.Load(nil, &s.head.next).n; curr.key != tailKey; {
		b := htm.Load(nil, &curr.next)
		if !b.marked {
			out = append(out, curr.key)
		}
		curr = b.n
	}
	return out
}
