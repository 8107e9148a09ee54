package skiplist

import (
	"sync/atomic"

	"repro/internal/htm"
	"repro/internal/speculate"
)

// pbox is the PTO variant's immutable (successor, marked) pair, identified
// by its value: every node embeds the two boxes that can point at it, so a
// link to x holds &x.in or &x.inMarked, and only the tail's links hold a
// box of their own. Changing a link allocates nothing.
//
// Value identity is enough because every comparison of a link — the direct
// CAS, the prefix transaction's check against the search's box, a composed
// Read window, a MultiCAS old value — compares the pair (successor, mark),
// and what each one proves depends only on the link's current pair, not on
// its history: a CAS from (x, unmarked) finds the link's owner unmarked and
// x after it, whatever the link held in between; x's key never changes; a
// marked link never changes again, so a snip from (x, unmarked) to x's
// marked successor is right whenever the pair still matches. In a garbage-
// collected heap x is not reused while a search holds it, so equal pairs
// name the same node. That is Harris's argument for mark-bit words, and the
// representation the simulated twin uses (simds packs the mark into the
// address word). TestValueIdentityReusesBoxes stages the one history that
// box identity used to rule out: a link leaves a box and comes back to it.
type pbox struct {
	n      *pnode
	marked bool
}

type pnode struct {
	key int64
	// in and inMarked are the boxes of the links that point at this node;
	// they sit beside key, so a hop reads the next Var and then one line.
	in, inMarked pbox
	top          int
	next         []htm.Var[*pbox]
}

// PTOSet is the PTO-accelerated skiplist set. Per §3.1, PTO is applied
// locally: searches run outside any transaction; a prefix transaction
// performs the multi-CAS linking step of insert, or marks all of a victim's
// next pointers at once in remove, falling back to the original per-level
// CAS sequence on abort.
type PTOSet struct {
	domain   *htm.Domain
	head     *pnode
	tail     *pnode
	rstate   atomic.Uint64
	height   atomic.Int32 // where searches start; Set.height's rule
	attempts int

	insSite *speculate.Site
	rmSite  *speculate.Site
}

// DefaultAttempts is the per-operation transaction retry budget for the
// skiplist PTO set.
const DefaultAttempts = 3

// NewPTOSet returns an empty PTO-accelerated set. attempts ≤ 0 selects
// DefaultAttempts.
func NewPTOSet(attempts int) *PTOSet {
	return NewPTOSetIn(htm.NewDomain(0, 0), attempts)
}

// newPNode allocates a node whose links are not yet bound to the domain:
// every caller Inits each level before the node is published.
func (s *PTOSet) newPNode(key int64, top int) *pnode {
	n, next := alloc[pnode, htm.Var[*pbox]](top)
	n.key, n.top, n.next = key, top, next
	n.in = pbox{n: n}
	n.inMarked = pbox{n: n, marked: true}
	return n
}

// link points every level of the still-private node n at succs. Nobody can
// see n until a commit or a CAS publishes a predecessor's link to it, so its
// own links are set by (re-)Init: a direct Store would lock the link and
// bump the domain's commit clock once per level for memory no transaction
// can have read.
func (s *PTOSet) link(n *pnode, succs *[MaxLevel]*pnode) {
	for l := range n.next {
		n.next[l].Init(s.domain, &succs[l].in)
	}
}

// WithPolicy replaces the speculation policy governing the retry loops. The
// default, speculate.Fixed(0), reproduces the historical behavior: Insert
// retries explicit aborts (a changed view) with a fresh look, Remove stops
// retrying on explicit aborts, both fall back after `attempts` tries.
// Returns s for chaining.
func (s *PTOSet) WithPolicy(p speculate.Policy) *PTOSet {
	s.insSite = p.Site("skiplist/insert", 1,
		speculate.Level{Name: "pto", Attempts: s.attempts, RetryExplicit: true})
	s.rmSite = p.Site("skiplist/remove", 1,
		speculate.Level{Name: "pto", Attempts: s.attempts})
	return s
}

// Domain exposes the transactional domain (for tests).
func (s *PTOSet) Domain() *htm.Domain { return s.domain }

// find mirrors Set.find over transactional Vars, using the direct (non-
// speculative) access path: it starts at max(s.height, top).
func (s *PTOSet) find(key int64, top int, preds, succs []*pnode, predBoxes []*pbox) bool {
retry:
	for {
		pred := s.head
		for level := max(int(s.height.Load()), top); level >= 0; level-- {
			pb := htm.Load(nil, &pred.next[level])
			if pb.marked {
				continue retry
			}
			curr := pb.n
			for {
				cb := htm.Load(nil, &curr.next[level])
				for cb.marked {
					if !htm.CAS(nil, &pred.next[level], pb, &cb.n.in) {
						continue retry
					}
					pb = htm.Load(nil, &pred.next[level])
					if pb.marked {
						continue retry
					}
					curr = pb.n
					cb = htm.Load(nil, &curr.next[level])
				}
				if curr.key < key {
					pred = curr
					pb = cb
					curr = cb.n
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr
			if predBoxes != nil {
				predBoxes[level] = pb
			}
		}
		return succs[0].key == key
	}
}

// Contains reports whether key is in the set (pure traversal, no writes).
// Like Set.Contains, above level 0 it reads only the nodes it moves past.
func (s *PTOSet) Contains(key int64) bool {
	pred := s.head
	for level := int(s.height.Load()); level > 0; level-- {
		for curr := htm.Load(nil, &pred.next[level]).n; curr.key < key; {
			cb := htm.Load(nil, &curr.next[level])
			if !cb.marked {
				pred = curr
			}
			curr = cb.n
		}
	}
	for curr := htm.Load(nil, &pred.next[0]).n; ; {
		cb := htm.Load(nil, &curr.next[0])
		if !cb.marked && curr.key >= key {
			return curr.key == key
		}
		curr = cb.n
	}
}

// Insert adds key, reporting false if present. The prefix transaction
// validates every predecessor link observed by the search and swings all of
// them to the new node in one atomic step — the coalescing of up to
// top+1 CASes that §3.1 describes. Each attempt re-runs the (non-
// transactional) search so the transaction always validates a fresh view;
// after the attempt budget is spent, the original per-level CAS sequence
// runs.
func (s *PTOSet) Insert(key int64) bool { return s.insert(key, drawLevel(&s.rstate)) }

// insert is Insert with a tower of top+1 links.
func (s *PTOSet) insert(key int64, top int) bool {
	var preds, succs [MaxLevel]*pnode
	var pboxes [MaxLevel]*pbox
	var n *pnode // allocated once a search finds key absent
	r := s.insSite.Begin(s.domain)
	for {
		if s.find(key, top, preds[:], succs[:], pboxes[:]) {
			return false
		}
		if n == nil {
			n = s.newPNode(key, top)
		}
		if !r.Next(0) {
			break // budget spent; preds/succs/pboxes hold a fresh view
		}
		s.link(n, &succs)
		st := r.Try(func(tx *htm.Tx) { s.swing(tx, n, &preds, &pboxes) })
		if st == htm.Committed {
			return true
		}
	}
	s.link(n, &succs)
	r.Fallback()
	return s.insertFallback(n, &preds, &succs, &pboxes)
}

// swing is Insert's prefix transaction: it checks every predecessor link
// against the box the search saw there and swings all of them to n, after
// raising s.height to n's top.
func (s *PTOSet) swing(tx *htm.Tx, n *pnode, preds *[MaxLevel]*pnode, pboxes *[MaxLevel]*pbox) {
	raise(&s.height, n.top)
	for l := 0; l <= n.top; l++ {
		if htm.Load(tx, &preds[l].next[l]) != pboxes[l] {
			// View changed since the search: abort and re-search rather
			// than help the conflicting operation (§2.4).
			tx.Abort(1)
		}
	}
	for l := 0; l <= n.top; l++ {
		htm.Store(tx, &preds[l].next[l], &n.in)
	}
}

// insertFallback performs the original lock-free insert of node n. Returns
// false if key was found present so the insert did not happen.
func (s *PTOSet) insertFallback(n *pnode, preds, succs *[MaxLevel]*pnode, pboxes *[MaxLevel]*pbox) bool {
	top := n.top
	raise(&s.height, top)
	for {
		if !htm.CAS(nil, &preds[0].next[0], pboxes[0], &n.in) {
			if s.find(n.key, top, preds[:], succs[:], pboxes[:]) {
				return false
			}
			s.link(n, succs)
			continue
		}
		break
	}
	for l := 1; l <= top; l++ {
		for {
			if htm.CAS(nil, &preds[l].next[l], pboxes[l], &n.in) {
				break
			}
			nb := htm.Load(nil, &n.next[l])
			if nb.marked || htm.Load(nil, &n.next[0]).marked {
				return true
			}
			s.find(n.key, top, preds[:], succs[:], pboxes[:])
			nb = htm.Load(nil, &n.next[l])
			if nb.marked {
				return true
			}
			if nb.n != succs[l] {
				if !htm.CAS(nil, &n.next[l], nb, &succs[l].in) {
					return true
				}
			}
		}
	}
	return true
}

// Remove deletes key, reporting false if absent. The prefix transaction
// marks every level of the victim in one atomic step instead of a top-down
// CAS sequence.
func (s *PTOSet) Remove(key int64) bool {
	var preds, succs [MaxLevel]*pnode
	if !s.find(key, 0, preds[:], succs[:], nil) {
		return false
	}
	victim := succs[0]
	removed := false
	committed := false
	r := s.rmSite.Begin(s.domain)
	for r.Next(0) {
		st := r.Try(func(tx *htm.Tx) {
			b0 := htm.Load(tx, &victim.next[0])
			if b0.marked {
				removed = false // lost the race: linearized as "absent"
				return
			}
			for l := victim.top; l >= 0; l-- {
				b := htm.Load(tx, &victim.next[l])
				if !b.marked {
					htm.Store(tx, &victim.next[l], &b.n.inMarked)
				}
			}
			removed = true
		})
		if st == htm.Committed {
			committed = true
			break
		}
	}
	if !committed {
		r.Fallback()
		removed = s.removeFallback(victim)
	}
	if removed {
		s.unlink(key, victim.top)
	}
	return removed
}

// unlink is Set.unlink: it snips the marked node of key, whose tower's top
// is top, at every level, then lowers s.height past the levels left empty.
func (s *PTOSet) unlink(key int64, top int) {
	var preds, succs [MaxLevel]*pnode
	s.find(key, top, preds[:], succs[:], nil)
	lower(&s.height, func(l int) bool { return htm.Load(nil, &s.head.next[l]) == &s.tail.in })
}

// removeFallback is the original top-down marking sequence.
func (s *PTOSet) removeFallback(victim *pnode) bool {
	for l := victim.top; l >= 1; l-- {
		b := htm.Load(nil, &victim.next[l])
		for !b.marked {
			htm.CAS(nil, &victim.next[l], b, &b.n.inMarked)
			b = htm.Load(nil, &victim.next[l])
		}
	}
	for {
		b := htm.Load(nil, &victim.next[0])
		if b.marked {
			return false
		}
		if htm.CAS(nil, &victim.next[0], b, &b.n.inMarked) {
			return true
		}
	}
}

// Len counts unmarked level-0 nodes. O(n); for tests and examples.
func (s *PTOSet) Len() int {
	n := 0
	for curr := htm.Load(nil, &s.head.next[0]).n; curr != s.tail; {
		b := htm.Load(nil, &curr.next[0])
		if !b.marked {
			n++
		}
		curr = b.n
	}
	return n
}

// Keys returns the unmarked keys in order. O(n); for tests and examples.
func (s *PTOSet) Keys() []int64 {
	var out []int64
	for curr := htm.Load(nil, &s.head.next[0]).n; curr != s.tail; {
		b := htm.Load(nil, &curr.next[0])
		if !b.marked {
			out = append(out, curr.key)
		}
		curr = b.n
	}
	return out
}
