package hashtable

// The hash table's one source — the original copy-on-write protocol, its
// prefix transactions and its composed adapters — over the memory contracts
// Mem and TxMem, which Table (atomics), PTOTable (htm Vars) and
// simds.SimHash (modeled words) supply. They are interfaces, not type
// parameters, for the Mound's reason (mound/algo.go).

// Gen names a table generation and Word one state of a bucket: Go pointers
// on the runtime tables, a modeled address and bucket word (Addr, Bits) on
// the simulated machine. The zero Gen is the absent predecessor.
type Gen struct {
	lf   *hnode
	pto  *pthnode
	Addr uint64
}

// Word is one state of a bucket; see Gen.
type Word struct {
	n    *fnode
	Bits uint64
}

// State is what a bucket read found.
type State uint8

const (
	Live   State = iota // initialized and not frozen
	Frozen              // final: no update may replace it
	Uninit              // not initialized yet
	Moved               // changed under the read (modeled in-place updates): read again
)

// Abort codes of the prefix transactions.
const (
	abortUninitialized = 1 // bucket needs initialization (slow path work)
	abortFrozen        = 2 // resize in progress
)

// Mem is the memory of the original protocol, which the lock-free table,
// every fallback and the modeled baseline run: direct accesses. A bucket's
// read is one call (Bucket, Scan), so that each substrate keeps its own
// order of the word, flag, length and value reads.
type Mem interface {
	Head() Gen
	Size(g Gen) int
	// Pred is g's predecessor generation, the zero Gen once unlinked.
	Pred(g Gen) Gen
	// Unlink drops g's predecessor: g is complete.
	Unlink(g Gen)
	Uninit(g Gen, i int) bool
	// Bucket reads bucket i of g: its word, its values and its state. The
	// values are valid until the next Bucket.
	Bucket(g Gen, i int) (w Word, vals []int64, st State)
	// Scan reports whether key is in bucket i of g; ok is false when the
	// bucket is uninitialized or moved under the scan.
	Scan(g Gen, i int, key int64) (found, ok bool)
	// Replace swings bucket i of g from w, which holds vals, to a live copy
	// with key added or removed (Cow), retiring w if it succeeds.
	Replace(g Gen, i int, w Word, vals []int64, key int64, add bool) bool
	// Freeze swings bucket i of g from w to a frozen copy of vals.
	Freeze(g Gen, i int, w Word, vals []int64) bool
	// Buf returns an empty buffer for a bucket's first values, which Init
	// takes back: the modeled machine reuses its thread's.
	Buf() []int64
	// Init installs vals, built in Buf's buffer, in bucket i of g unless
	// another thread has.
	Init(g Gen, i int, vals []int64)
	// Install replaces head g by a new generation of size buckets whose
	// predecessor is g, unless another thread has replaced it.
	Install(g Gen, size int)
	// Count records an applied insert (add) or remove of key and applies
	// the substrate's growth trigger.
	Count(key int64, add bool)
}

// TxMem is the memory of a transaction: a prefix transaction's plain loads
// and buffered stores, or a composed operation's (internal/txn,
// internal/simtxn) footprint.
type TxMem interface {
	Size(g Gen) int
	Pred(g Gen) Gen
	// Find reads bucket i of g for an update: its word, its length n and
	// key's position at in it (-1: absent).
	Find(g Gen, i int, key int64) (w Word, n, at int, st State)
	// Lookup reads bucket i of g for a lookup.
	Lookup(g Gen, i int, key int64) (found bool, st State)
	// Put stages bucket i of g, found by Find as (w, n, at), with key added
	// or removed.
	Put(g Gen, i int, w Word, n, at int, key int64, add bool)
	// Abort ends the attempt: a prefix transaction aborts with code, a
	// composed one retries. It does not return.
	Abort(code int)
	// Speculative tells a fast path from a composed operation's capture
	// mode, which helps before it retries.
	Speculative() bool
}

// Index hashes k into [0, size); size must be a power of two. Low-bit
// masking keeps the split/merge mapping simple: growing sends the keys of
// old bucket j to new buckets j and j+oldSize, so a new bucket i draws from
// old bucket i mod oldSize, and halving merges buckets i and i+newSize.
func Index(k int64, size int) int {
	x := uint64(k) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & uint64(size-1))
}

// Has reports whether key is in vals.
func Has(vals []int64, key int64) bool {
	for _, v := range vals {
		if v == key {
			return true
		}
	}
	return false
}

// Cow appends to buf the bucket vals with key added (add; key is absent)
// or removed: the copy-on-write update. It copies in at most two runs, not
// value by value: on a short operation the difference shows.
func Cow(buf, vals []int64, key int64, add bool) []int64 {
	if add {
		return append(append(buf, vals...), key)
	}
	for i, v := range vals {
		if v == key {
			return append(append(buf, vals[:i]...), vals[i+1:]...)
		}
	}
	return append(buf, vals...)
}

// Update inserts (add) or removes key by the original protocol, reporting
// whether the set changed.
func Update(m Mem, key int64, add bool) bool {
	for {
		g := m.Head()
		i := Index(key, m.Size(g))
		w, vals, st := m.Bucket(g, i)
		if st == Uninit {
			initBucket(m, g, i)
			continue
		}
		if st != Live {
			continue // frozen: a resize advanced the head; moved: read again
		}
		if Has(vals, key) == add {
			return false
		}
		if m.Replace(g, i, w, vals, key, add) {
			m.Count(key, add)
			return true
		}
	}
}

// Contains reports whether key is present by the original lookup. It never
// initializes a bucket it can read through: an uninitialized bucket is
// resolved by reading the (complete) predecessor generation, keeping the
// lookup wait-free.
func Contains(m Mem, key int64) bool {
	for {
		g := m.Head()
		size := m.Size(g)
		i := Index(key, size)
		if !m.Uninit(g, i) {
			if found, ok := m.Scan(g, i, key); ok {
				return found
			}
			continue
		}
		pred := m.Pred(g)
		if pred == (Gen{}) {
			// Unlinked since the bucket read, so the bucket has been
			// initialized by now.
			initBucket(m, g, i)
			continue
		}
		psize := m.Size(pred)
		if size == 2*psize {
			if found, ok := m.Scan(pred, i%psize, key); ok {
				return found
			}
			continue
		}
		if found, ok := m.Scan(pred, i, key); !ok {
			continue
		} else if found {
			return true
		}
		if found, ok := m.Scan(pred, i+size, key); ok {
			return found
		}
	}
}

// initBucket ensures bucket i of g is initialized, freezing and splitting
// or merging the predecessor's buckets as needed.
func initBucket(m Mem, g Gen, i int) {
	if !m.Uninit(g, i) {
		return
	}
	size := m.Size(g)
	pred := m.Pred(g)
	vals := m.Buf()
	if pred != (Gen{}) {
		if psize := m.Size(pred); size == 2*psize {
			// Doubling: bucket i receives the matching half of the parent.
			for _, k := range freeze(m, pred, i%psize) {
				if Index(k, size) == i {
					vals = append(vals, k)
				}
			}
		} else {
			// Halving: bucket i merges parent buckets i and i+size.
			vals = append(vals, freeze(m, pred, i)...)
			vals = append(vals, freeze(m, pred, i+size)...)
		}
	}
	m.Init(g, i, vals)
}

// freeze makes bucket i of g immutable and returns its final contents.
func freeze(m Mem, g Gen, i int) []int64 {
	for {
		w, vals, st := m.Bucket(g, i)
		switch st {
		case Uninit:
			initBucket(m, g, i)
		case Frozen:
			return vals
		case Live:
			if m.Freeze(g, i, w, vals) {
				return vals
			}
		}
	}
}

// Resize installs a new generation after g, doubling (grow) or halving
// it, unless g is no longer the head or is already the smallest table.
func Resize(m Mem, g Gen, grow bool) {
	if m.Head() != g {
		return // someone already replaced this generation
	}
	size := m.Size(g)
	if !grow && size == 2 {
		return
	}
	Complete(m, g, size)
	if grow {
		m.Install(g, 2*size)
	} else {
		m.Install(g, size/2)
	}
}

// Complete initializes every bucket of g, which has size buckets, and
// unlinks its predecessor, so that g can be a complete predecessor and the
// older chain can go.
func Complete(m Mem, g Gen, size int) {
	for i := 0; i < size; i++ {
		initBucket(m, g, i)
	}
	m.Unlink(g)
}

// Keys returns the elements (quiescent use only).
func Keys(m Mem) []int64 {
	g := m.Head()
	size := m.Size(g)
	var out []int64
	for i := 0; i < size; i++ {
		for {
			_, vals, st := m.Bucket(g, i)
			if st == Live || st == Frozen {
				out = append(out, vals...)
				break
			}
			if st == Uninit {
				initBucket(m, g, i)
			}
		}
	}
	return out
}

// TxUpdate inserts (add) or removes key in the transaction x over head
// generation g, reporting whether the set changes: the update's prefix
// transaction, and its composed adapter. An uninitialized or frozen bucket
// ends the attempt (§2.4: don't help under speculation); capture mode
// initializes the bucket first, through m. A frozen bucket's resize has
// already replaced g, so the next attempt reads the new head.
func TxUpdate(m Mem, x TxMem, g Gen, key int64, add bool) bool {
	i := Index(key, x.Size(g))
	w, n, at, st := x.Find(g, i, key)
	switch st {
	case Uninit:
		fail(m, x, g, i)
	case Frozen:
		x.Abort(abortFrozen)
	}
	if (at >= 0) == add {
		return false
	}
	x.Put(g, i, w, n, at, key, add)
	return true
}

// TxContains reports whether key is present in the transaction x over
// head generation g: the lookup's prefix transaction, and its composed
// adapter. Like the original it reads through to the predecessor instead
// of initializing, so its footprint is the head's bucket word plus one or
// two of the predecessor's.
func TxContains(m Mem, x TxMem, g Gen, key int64) bool {
	size := x.Size(g)
	i := Index(key, size)
	found, st := x.Lookup(g, i, key)
	switch st {
	case Live:
		return found
	case Frozen:
		x.Abort(abortFrozen)
	}
	pred := x.Pred(g)
	if pred == (Gen{}) {
		fail(m, x, g, i)
	}
	psize := x.Size(pred)
	if size == 2*psize {
		return txScan(m, x, g, i, pred, i%psize, key)
	}
	return txScan(m, x, g, i, pred, i, key) || txScan(m, x, g, i, pred, i+size, key)
}

// txScan reports whether key is in bucket j of pred, the predecessor of g,
// ending the attempt as for g's bucket i if it is uninitialized. A frozen
// bucket of pred holds its final contents.
func txScan(m Mem, x TxMem, g Gen, i int, pred Gen, j int, key int64) bool {
	found, st := x.Lookup(pred, j, key)
	if st == Uninit {
		fail(m, x, g, i)
	}
	return found
}

// fail ends an attempt that needs bucket i of g initialized: the fast path
// aborts, capture mode initializes the bucket before it retries.
func fail(m Mem, x TxMem, g Gen, i int) {
	if !x.Speculative() {
		initBucket(m, g, i)
	}
	x.Abort(abortUninitialized)
}
