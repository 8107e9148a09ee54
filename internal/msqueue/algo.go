package msqueue

// The PTO queue's one source — original protocol, prefix bodies, composed
// adapters — over a Mem that PTOQueue (htm Vars) and simds.SimMSQueue
// (modeled words) supply with their own attempt loops. Queue keeps the
// original on its atomics: each Mem access is a dictionary call, a quarter
// of its short loop (EXPERIMENTS "Method notes", the type-parameter
// contract). N is a node (zero: the null link), W a link word, V a value.

// Mem is the memory the bodies run on. Load, Store and CAS act in the prefix
// transaction, or directly outside one; Abort ends a prefix attempt. Under a
// composed operation (internal/txn, internal/simtxn) Read and Write join its
// footprint (Read sees its own staged writes), Retry abandons the attempt,
// Speculative tells the fast path from capture mode, and CAS stays direct,
// for helping. A node's value is written once, before linking.
type Mem[N comparable, W, V any] interface {
	Head() W
	Tail() W
	Next(n N) W
	Val(n N) V
	Load(w W) N
	Store(w W, x N)
	CAS(w W, old, new N) bool
	Abort()
	Read(w W) N
	Write(w W, x N)
	Retry()
	Speculative() bool
}

// Enqueue links the new node n at the tail by the original protocol, the
// PTO fallback and the modeled baseline: double-check the tail snapshot,
// help a lagging tail, link, swing the tail.
func Enqueue[N comparable, W, V any, M Mem[N, W, V]](m M, n N) {
	var null N
	tail := m.Tail()
	for {
		t := m.Load(tail)
		link := m.Next(t)
		next := m.Load(link)
		if t != m.Load(tail) { // double-check the snapshot
			continue
		}
		if next != null {
			m.CAS(tail, t, next) // help the lagging tail
			continue
		}
		if m.CAS(link, null, n) {
			m.CAS(tail, t, n)
			return
		}
	}
}

// Dequeue removes the oldest value by the original protocol, reporting
// false when the queue is empty.
func Dequeue[N comparable, W, V any, M Mem[N, W, V]](m M) (v V, ok bool) {
	var null N
	head, tail := m.Head(), m.Tail()
	for {
		h := m.Load(head)
		t := m.Load(tail)
		next := m.Load(m.Next(h))
		if h != m.Load(head) { // double-check the snapshot
			continue
		}
		if h == t {
			if next == null {
				return v, false
			}
			m.CAS(tail, t, next)
			continue
		}
		v = m.Val(next)
		if m.CAS(head, h, next) {
			return v, true
		}
	}
}

// PrefixEnqueue is the enqueue's prefix transaction: link and tail swing in
// one step, no double-check. A tail left lagging by a fallback enqueue
// aborts it (§2.4: abort, don't help).
func PrefixEnqueue[N comparable, W, V any, M Mem[N, W, V]](m M, n N) {
	var null N
	tail := m.Tail()
	link := m.Next(m.Load(tail))
	if m.Load(link) != null {
		m.Abort()
	}
	m.Store(link, n)
	m.Store(tail, n)
}

// PrefixDequeue is the dequeue's prefix transaction: one store, no
// double-check, aborting on a lagging tail so the fallback can help it.
func PrefixDequeue[N comparable, W, V any, M Mem[N, W, V]](m M) (v V, ok bool) {
	var null N
	head := m.Head()
	h := m.Load(head)
	t := m.Load(m.Tail())
	next := m.Load(m.Next(h))
	if next == null {
		return v, false
	}
	if h == t {
		m.Abort()
	}
	v = m.Val(next)
	m.Store(head, next)
	return v, true
}

// TxEnqueue links the new node n as part of a composed operation, link and
// tail swing in one step; the next enqueue or dequeue of the same body sees
// the staged tail, which makes Transfer all-or-nothing. A lagging tail
// aborts the fast path (§2.4); capture mode helps it forward, then re-runs.
func TxEnqueue[N comparable, W, V any, M Mem[N, W, V]](c M, n N) {
	var null N
	tail := c.Tail()
	t := c.Read(tail)
	link := c.Next(t)
	if next := c.Read(link); next != null {
		if !c.Speculative() {
			c.CAS(tail, t, next)
		}
		c.Retry()
	}
	c.Write(link, n)
	c.Write(tail, n)
}

// TxFront reads the oldest value as part of a composed operation, reporting
// false when the queue is empty. Head and next both join the footprint, so
// a committed answer is the front at the commit point — the semantic head
// item open transactions (internal/semtx) validate.
func TxFront[N comparable, W, V any, M Mem[N, W, V]](c M) (v V, ok bool) {
	var null N
	next := c.Read(c.Next(c.Read(c.Head())))
	if next == null {
		return v, false
	}
	return c.Val(next), true
}

// TxDequeue removes the oldest value as part of a composed operation,
// reporting false when the queue is empty; the head's null next word joins
// the footprint, so that answer is validated too. A lagging tail is handled
// as in TxEnqueue, so the head never passes the tail.
func TxDequeue[N comparable, W, V any, M Mem[N, W, V]](c M) (v V, ok bool) {
	var null N
	head := c.Head()
	h := c.Read(head)
	next := c.Read(c.Next(h))
	if next == null {
		return v, false
	}
	if t := c.Read(c.Tail()); h == t {
		if !c.Speculative() {
			c.CAS(c.Tail(), t, next)
		}
		c.Retry()
	}
	v = c.Val(next)
	c.Write(head, next)
	return v, true
}
