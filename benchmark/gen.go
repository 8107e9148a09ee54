package main

import (
	"math"
	"sort"
)

// rng is the benchmark's own generator (splitmix64-seeded xorshift64*), so a
// seed names the same request stream on every Go version.
type rng struct{ s uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func newRNG(seed, stream uint64) *rng {
	s := splitmix(splitmix(seed) ^ splitmix(stream*0xD1B54A32D192ED03+1))
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() >> 11 % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) pct() int       { return r.intn(100) }
func (r *rng) coin() bool     { return r.next()>>63 == 1 }
func (r *rng) shuffle(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s from a
// precomputed cumulative table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// The two load generators split the key space by parity — client c owns keys
// ≡ c (mod 2) — so each keeps an exact sequential model of everything it can
// observe while both still contend on the same structures, stripes and
// shards underneath.
const (
	clients       = 2
	keysPerClient = 4096 // 8192 keys in all
	zipfS         = 1.1
)

func keyOf(c int, idx int32) int64 { return int64(2*(int(idx)+1) + c) }
func idxOf(c int, key int64) int32 { return int32((key-int64(c))/2 - 1) }

// Structures a request can name. The serve workloads use hot and cold (the
// server's hashtable and skiplist); lib-compose adds a BST index.
const (
	setHot = iota
	setCold
	setIndex
	numSets
)

var setNames = [numSets]string{"hot", "cold", "index"}

// opKind is what a request does, in the model's terms: the same kind may
// travel as an HTTP envelope, a handler call or a direct library call.
type opKind uint8

const (
	kGet opKind = iota
	kPut
	kDel
	kPutN
	kDelN
	kMove
	kMoveAll
	kTxn // serve: /v1/txn body; lib: semtx.Run body
	kEnqueue
	kDequeue
	kPush
	kPopMin
	kTransfer
	kMoveMin
	kMoveToPQ
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "del", "putN", "delN", "move", "moveall",
	"txn", "enqueue", "dequeue", "push", "popmin", "transfer", "movemin", "movetopq"}

// How a lib-compose set operation reaches the structure.
const (
	viaManager = iota // txn.Manager ReadOnly (gets) or Atomic (writes)
	viaDirect         // the structure's own PTO method, no manager
)

// txnOp is one step of a multi-op body (kGet/kPut/kDel on a set, or a queue
// or PQ op on the request's slot).
type txnOp struct {
	kind opKind
	set  uint8
	idx  int32
	val  int64
}

const maxBody = 6

// request is one generated operation. Generators refill a caller-owned
// request, reusing idxs, so the measured loop does not allocate for it.
type request struct {
	kind  opKind
	via   uint8
	set   uint8 // target set; source of a move
	dst   uint8 // destination of a move
	slot  uint8 // which of the client's queues/PQs (serve: its owned shard c+2*slot)
	idx   int32
	idxs  []int32
	val   int64 // enqueue/push value; transfer count
	body  [maxBody]txnOp
	nbody int
}

// keys reports how many keys (or queue/PQ values) the request touches — the
// numerator of keys_per_s.
func (r *request) keys() int {
	switch r.kind {
	case kPutN, kDelN, kMoveAll:
		return len(r.idxs)
	case kTxn:
		return r.nbody
	case kTransfer:
		return int(r.val)
	}
	return 1
}

// world is the per-run, seed-derived input description shared by both
// clients: the popularity order of each client's keys.
type world struct {
	seed uint64
	z    *zipf
	perm [clients][]int32 // zipf rank → key index
}

func newWorld(seed uint64) *world {
	w := &world{seed: seed, z: newZipf(keysPerClient, zipfS)}
	for c := range w.perm {
		p := make([]int32, keysPerClient)
		for i := range p {
			p[i] = int32(i)
		}
		newRNG(seed, uint64(100+c)).shuffle(p)
		w.perm[c] = p
	}
	return w
}

// prefilled reports whether a key starts in a set: half the keys in hot, a
// different half in cold, a quarter in the index — decided by the key's
// popularity rank so every seed starts from the same shape.
func prefilled(set int, rank int) bool {
	switch set {
	case setHot:
		return rank%2 == 0
	case setCold:
		return rank%4 >= 2
	default:
		return rank%4 == 1
	}
}

// generator produces one client's request stream. It consults the client's
// model only for queue and PQ sizes (to keep them bounded), which the stream
// itself determines — so the stream is a function of (seed, client) alone.
type generator struct {
	c    int
	w    *world
	r    *rng
	m    *model
	seq  int64      // unique values for enqueue
	home [2][]int32 // serve: the client's key indexes living on shard c, c+2
	next func(*request)
}

func newGenerator(w *world, c int, m *model, stream uint64) *generator {
	return &generator{c: c, w: w, m: m, r: newRNG(w.seed, stream*clients+uint64(c))}
}

func (g *generator) key() int32 { return g.w.perm[g.c][g.w.z.rank(g.r.float())] }

func (g *generator) keysN(r *request, n int) {
	r.idxs = r.idxs[:0]
	for i := 0; i < n; i++ {
		r.idxs = append(r.idxs, g.key())
	}
}

func (g *generator) value() int64 {
	g.seq++
	return g.seq*clients + int64(g.c)
}

// hotOrCold picks the target set of a serve request: 80% hot, 20% cold.
func (g *generator) hotOrCold() uint8 {
	if g.r.pct() < 20 {
		return setCold
	}
	return setHot
}

// genPoint is serve-point: single-key requests, 50% get, 25% put, 25% del.
func (g *generator) genPoint(r *request) {
	switch p := g.r.pct(); {
	case p < 50:
		r.kind = kGet
	case p < 75:
		r.kind = kPut
	default:
		r.kind = kDel
	}
	r.set, r.idx = g.hotOrCold(), g.key()
}

const envelopeKeys = 32

// genEnvelope is serve-envelope: 40% put×32, 20% del×32, 20% moveall×32
// between hot and cold, 20% six-op /v1/txn bodies pinned to an owned shard.
func (g *generator) genEnvelope(r *request) {
	switch p := g.r.pct(); {
	case p < 40:
		r.kind, r.set = kPutN, g.hotOrCold()
		g.keysN(r, envelopeKeys)
	case p < 60:
		r.kind, r.set = kDelN, g.hotOrCold()
		g.keysN(r, envelopeKeys)
	case p < 80:
		r.kind, r.set, r.dst = kMoveAll, setHot, setCold
		if g.r.coin() {
			r.set, r.dst = setCold, setHot
		}
		g.keysN(r, envelopeKeys)
	default:
		g.genServeTxn(r)
	}
}

// genServeTxn builds a six-op body on one owned shard: a get and a write on
// hot, a write on cold, an enqueue and a dequeue on the shard's ingress
// queue, and a push or a popmin on its scheduler PQ (whichever keeps the PQ
// near its prefill size). Keyed ops use keys that live on that shard, since
// the server runs the whole body there.
func (g *generator) genServeTxn(r *request) {
	r.kind = kTxn
	r.slot = uint8(g.r.intn(2))
	home := g.home[r.slot]
	pick := func() int32 { return home[g.r.intn(len(home))] }
	write := func() opKind {
		if g.r.coin() {
			return kPut
		}
		return kDel
	}
	r.body[0] = txnOp{kind: kGet, set: setHot, idx: pick()}
	r.body[1] = txnOp{kind: write(), set: setHot, idx: pick()}
	r.body[2] = txnOp{kind: write(), set: setCold, idx: pick()}
	r.body[3] = txnOp{kind: kEnqueue, val: g.value()}
	r.body[4] = txnOp{kind: kDequeue}
	if g.m.pqs[r.slot].Len() < queuePrefill {
		r.body[5] = txnOp{kind: kPush, val: int64(g.r.intn(1<<20))*clients + int64(g.c)}
	} else {
		r.body[5] = txnOp{kind: kPopMin}
	}
	r.nbody = 6
}

const (
	libMoveAllKeys = 16
	queuePrefill   = 64
)

// genLib is lib-compose: 20% direct PTO structure ops, 20% ReadOnly
// contains, 25% one-op Atomic, 15% Move, 5% MoveAll×16, 10% four-op semtx
// bodies, 5% queue/PQ composed ops.
func (g *generator) genLib(r *request) {
	r.via = viaManager
	anySet := func() uint8 { return uint8(g.r.intn(numSets)) }
	twoSets := func() (uint8, uint8) {
		a := g.r.intn(numSets)
		return uint8(a), uint8((a + 1 + g.r.intn(numSets-1)) % numSets)
	}
	setOp := func() opKind {
		switch p := g.r.pct(); {
		case p < 34:
			return kGet
		case p < 67:
			return kPut
		default:
			return kDel
		}
	}
	switch p := g.r.pct(); {
	case p < 20:
		r.kind, r.via, r.set, r.idx = setOp(), viaDirect, anySet(), g.key()
	case p < 40:
		r.kind, r.set, r.idx = kGet, anySet(), g.key()
	case p < 65:
		r.kind, r.set, r.idx = kPut, anySet(), g.key()
		if g.r.coin() {
			r.kind = kDel
		}
	case p < 80:
		r.kind, r.idx = kMove, g.key()
		r.set, r.dst = twoSets()
	case p < 85:
		r.kind = kMoveAll
		r.set, r.dst = twoSets()
		g.keysN(r, libMoveAllKeys)
	case p < 95:
		r.kind, r.slot, r.nbody = kTxn, 0, 4
		r.body[0] = txnOp{kind: kGet, set: anySet(), idx: g.key()}
		r.body[1] = txnOp{kind: kPut, set: anySet(), idx: g.key()}
		r.body[2] = txnOp{kind: kDel, set: anySet(), idx: g.key()}
		r.body[3] = g.libQueueOp()
	default:
		g.genLibComposed(r)
	}
}

// libQueueOp is a semtx body's fourth step: an ingress or scheduler op that
// steers the structure back toward its prefill size.
func (g *generator) libQueueOp() txnOp {
	if g.r.coin() {
		if len(g.m.queues[0]) < queuePrefill {
			return txnOp{kind: kEnqueue, val: g.value()}
		}
		return txnOp{kind: kDequeue}
	}
	if g.m.pqs[0].Len() < queuePrefill {
		// PQ values are keys the client owns: MoveMin inserts them into a set.
		return txnOp{kind: kPush, val: keyOf(g.c, g.key())}
	}
	return txnOp{kind: kPopMin}
}

// genLibComposed is the queue/PQ share of lib-compose: Transfer between the
// client's ingress (slot 0) and egress (slot 1) queues in whichever direction
// has more to give, MoveMin from the scheduler PQ into a set, MoveToPQ back.
func (g *generator) genLibComposed(r *request) {
	switch g.r.intn(3) {
	case 0:
		r.kind, r.val = kTransfer, int64(1+g.r.intn(4))
		r.slot = 0
		if len(g.m.queues[1]) > len(g.m.queues[0]) {
			r.slot = 1
		}
	case 1:
		r.kind, r.slot, r.dst = kMoveMin, 0, uint8(g.r.intn(numSets))
	default:
		r.kind, r.slot, r.set, r.idx = kMoveToPQ, 0, uint8(g.r.intn(numSets)), g.key()
	}
}
