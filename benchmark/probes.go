package main

import (
	"bytes"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/list"
	"repro/internal/mindicator"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/tune"
	"repro/internal/txn"
)

// The probes time calls into each layer's exported functions from one
// goroutine. They are the same whatever workload the traced run belongs to,
// so a change to one layer shows in its own rows first.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// measured holds per-layer values and the sample count behind each.
type measured struct {
	values map[string]float64
	n      map[string]int
}

func newMeasured() measured {
	return measured{values: make(map[string]float64), n: make(map[string]int)}
}

func (m measured) put(name string, v float64, n int) { m.values[name], m.n[name] = v, n }

// probes collects the probe rows. Times are on the reference clock (see
// calib.go): every timed batch runs between two samples of the host's speed.
type probes struct {
	measured
	scale float64 // 1 normally; smoke runs shrink every call count
	cal   calibrator
}

// probeCalib is how long the host's speed is sampled between two batches.
const probeCalib = 500 * time.Microsecond

// timed runs f between two samples of the host's speed, of which before is
// the first, and returns f's time in reference ns and the second sample.
func (p *probes) timed(before float64, f func()) (ns, after float64) {
	start := time.Now()
	f()
	d := time.Since(start)
	after = p.cal.sample(probeCalib)
	return float64(d) * (before + after) / 2, after
}

func newProbes(smoke bool) *probes {
	p := &probes{measured: newMeasured(), scale: 1}
	if smoke {
		p.scale = 0.02
	}
	return p
}

const probeBatches = 20

// ns reports the median, over probeBatches batches, of f's mean time per
// call, after a warm-up of two batches.
func (p *probes) ns(name string, calls int, f func()) float64 {
	per := max(int(float64(calls)*p.scale)/probeBatches, 2)
	for i := 0; i < per*2; i++ {
		f()
	}
	runtime.GC() // every probe starts from a collected heap
	batch := make([]float64, probeBatches)
	speed := p.cal.sample(probeCalib)
	for b := range batch {
		batch[b], speed = p.timed(speed, func() {
			for i := 0; i < per; i++ {
				f()
			}
		})
		batch[b] /= float64(per)
	}
	v := median(batch)
	p.put(name, v, per*probeBatches)
	return v
}

// allocs reports heap allocations per call of f on this goroutine.
func (p *probes) allocs(name string, calls int, f func()) {
	calls = max(int(float64(calls)*p.scale), 10)
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	p.put(name, float64(after.Mallocs-before.Mallocs)/float64(calls), calls)
}

// runProbes measures every probe row of the per-layer catalog.
func runProbes(smoke bool) *probes {
	p := newProbes(smoke)
	probeHTM(p)
	probeSpeculate(p)
	probeTxn(p)
	probeStructures(p)
	probeServer(p)
	probeSim(p)
	return p
}

const probeCalls = 20000

func probeHTM(p *probes) {
	d := htm.NewDomain(0, 0)
	var vars [64]*htm.Var[uint64]
	for i := range vars {
		vars[i] = htm.NewVar(d, uint64(0))
	}
	v := vars[0]
	p.ns("htm.empty_txn_ns", probeCalls, func() { d.Atomically(func(tx *htm.Tx) {}) })
	p.ns("htm.read1_txn_ns", probeCalls, func() {
		d.Atomically(func(tx *htm.Tx) { sink += htm.Load(tx, v) })
	})
	rw1 := func() { d.Atomically(func(tx *htm.Tx) { htm.Store(tx, v, htm.Load(tx, v)+1) }) }
	p.ns("htm.rw1_txn_ns", probeCalls, rw1)
	p.allocs("htm.rw1_txn_allocs", probeCalls, rw1)
	p.ns("htm.rw8_txn_ns", probeCalls, func() {
		d.Atomically(func(tx *htm.Tx) {
			for _, w := range vars[:8] {
				htm.Store(tx, w, htm.Load(tx, w)+1)
			}
		})
	})
	words := float64(len(vars))
	p.put("htm.load_ns_per_word", p.ns("htm.load_ns_per_word", probeCalls/8, func() {
		for _, w := range vars {
			sink += htm.Load(nil, w)
		}
	})/words, p.n["htm.load_ns_per_word"]*len(vars))
	p.put("htm.store_ns_per_word", p.ns("htm.store_ns_per_word", probeCalls/8, func() {
		for i, w := range vars {
			htm.Store(nil, w, uint64(i))
		}
	})/words, p.n["htm.store_ns_per_word"]*len(vars))

	cur := htm.Load(nil, v)
	p.ns("htm.direct_cas_ns", probeCalls, func() {
		if htm.CAS(nil, v, cur, cur+1) {
			cur++
		}
	})
	multi := func(n int, write bool) func() {
		gen := uint64(0)
		for _, w := range vars[:n] {
			htm.Store(nil, w, gen)
		}
		entries := make([]htm.Entry, n)
		return func() {
			next := gen
			if write {
				next++
			}
			for i, w := range vars[:n] {
				entries[i] = htm.NewUpdate(w, gen, next)
			}
			if write && htm.MultiCAS(entries...) || !write && htm.MultiValidate(entries...) {
				gen = next
			}
		}
	}
	p.ns("htm.multicas2_ns", probeCalls, multi(2, true))
	p.ns("htm.multicas8_ns", probeCalls, multi(8, true))
	p.ns("htm.multivalidate8_ns", probeCalls, multi(8, false))
}

func probeSpeculate(p *probes) {
	d := htm.NewDomain(0, 0)
	site := speculate.Fixed(0).NewSite("probe/empty", nil, speculate.Level{Name: "pto", Attempts: 3})
	try := p.ns("speculate.empty_try_ns", probeCalls, func() {
		r := site.Begin(d)
		for r.Next(0) {
			if r.Try(func(tx *htm.Tx) {}) == htm.Committed {
				return
			}
		}
		r.Fallback()
	})
	p.put("speculate.self_ns", try-p.values["htm.empty_txn_ns"], p.n["speculate.empty_try_ns"])
}

// probeShard is a server shard's structure set on one domain, as the
// composed-operation probes need it.
type probeShard struct {
	d         *htm.Domain
	m         *txn.Manager
	sem       *semtx.Manager[*txn.Ctx, int64]
	hot, cold txn.Set
}

func newProbeShard(fallback bool) *probeShard {
	d := htm.NewDomainStripes(0, 0, 0)
	if fallback {
		d.SetCapacity(-1, -1)
	}
	s := &probeShard{d: d, m: txn.NewIn(d, 0)}
	s.hot = hashtable.NewPTOTableIn(d, 64, 0)
	s.cold = skiplist.NewPTOSetIn(d, 0)
	r := s.m.Structures()
	r.AddSet("hot", s.hot)
	r.AddSet("cold", s.cold)
	r.AddQueue("ingress", msqueue.NewPTOIn(d, 0))
	r.AddPQ("sched", mound.NewPTOIn(d, 12, 0))
	s.sem = semtx.New(s.m, r)
	for k := int64(0); k < 512; k += 2 {
		s.m.Atomic(func(c *txn.Ctx) { s.hot.TxInsert(c, k) })
	}
	return s
}

// flip returns a one-op Atomic that alternately inserts and removes a key,
// so every call changes the set.
func (s *probeShard) flip(key int64) func() {
	in := false
	return func() {
		s.m.Atomic(func(c *txn.Ctx) {
			if in {
				s.hot.TxRemove(c, key)
			} else {
				s.hot.TxInsert(c, key)
			}
		})
		in = !in
	}
}

// shuttle returns a MoveAll over n keys that alternates direction, so every
// call moves all n.
func (s *probeShard) shuttle(n int) func() {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(1000*n + 2*i)
		s.m.Atomic(func(c *txn.Ctx) { s.hot.TxInsert(c, keys[i]) })
	}
	src, dst := s.hot, s.cold
	return func() {
		sink += uint64(txn.MoveAll(s.m, src, dst, keys...))
		src, dst = dst, src
	}
}

func probeTxn(p *probes) {
	s := newProbeShard(false)
	p.ns("txn.empty_atomic_ns", probeCalls, func() { s.m.Atomic(func(c *txn.Ctx) {}) })
	flip := s.flip(701)
	p.ns("txn.atomic_1op_ns", probeCalls, flip)
	p.allocs("txn.atomic_1op_allocs", probeCalls, flip)
	p.ns("txn.readonly_1op_ns", probeCalls, func() {
		s.m.ReadOnly(func(c *txn.Ctx) {
			if s.hot.TxContains(c, 64) {
				sink++
			}
		})
	})
	src, dst := s.hot, s.cold
	p.ns("txn.move_ns", probeCalls, func() {
		if txn.Move(s.m, src, dst, 128) {
			src, dst = dst, src
		}
	})
	p.ns("txn.moveall16_ns", probeCalls/4, s.shuttle(16))
	p.ns("txn.moveall32_ns", probeCalls/4, s.shuttle(32))

	body := func(ops int) func() {
		n := int64(0)
		return func() {
			n++
			s.sem.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
				if tx.Get("hot", 64) {
					sink++
				}
				if ops == 4 {
					tx.Put("hot", 703)
					tx.Delete("hot", 703)
					tx.Enqueue("ingress", n)
				}
				return nil
			})
		}
	}
	p.ns("semtx.run_1op_ns", probeCalls, body(1))
	p.ns("semtx.run_4op_ns", probeCalls/2, body(4))
	p.allocs("semtx.run_4op_allocs", probeCalls/2, body(4))

	f := newProbeShard(true)
	p.ns("txn.atomic_1op_fallback_ns", probeCalls, f.flip(701))
	p.ns("txn.moveall16_fallback_ns", probeCalls/4, f.shuttle(16))
}

// setbench is the paper's set microbenchmark on one thread: 34% lookups,
// the rest split between insert and remove, keys in [0,512), half prefilled
// in shuffled order so the tree starts balanced.
func setbench(insert, remove, contains func(int64) bool) func() {
	for i := int64(0); i < 256; i++ {
		insert((i*0x9E3779B1 + 7) & 255 * 2)
	}
	r := newRNG(7, 7)
	return func() {
		x := r.next()
		k := int64(x >> 20 % 512)
		switch pct := int(x >> 40 % 100); {
		case pct < 34:
			contains(k)
		case pct < 67:
			insert(k)
		default:
			remove(k)
		}
	}
}

func probeStructures(p *probes) {
	type set interface {
		Insert(int64) bool
		Remove(int64) bool
		Contains(int64) bool
	}
	sets := []struct {
		name     string
		pto, lfr set
	}{
		{"hashtable", hashtable.NewPTOTable(64, 0), hashtable.NewTable(64)},
		{"skiplist", skiplist.NewPTOSet(0), skiplist.NewSet()},
		{"bst", bst.NewPTO12(), bst.New()},
		{"list", list.NewPTO(0), list.New()},
	}
	for _, s := range sets {
		p.ns(s.name+".pto_op_ns", probeCalls, setbench(s.pto.Insert, s.pto.Remove, s.pto.Contains))
		p.ns(s.name+".lockfree_op_ns", probeCalls, setbench(s.lfr.Insert, s.lfr.Remove, s.lfr.Contains))
	}

	type queue interface {
		Enqueue(int64)
		Dequeue() (int64, bool)
	}
	for name, q := range map[string]queue{"msqueue.pto_op_ns": msqueue.NewPTO(0), "msqueue.lockfree_op_ns": msqueue.New()} {
		for i := int64(0); i < 64; i++ {
			q.Enqueue(i)
		}
		turn := false
		p.ns(name, probeCalls, func() {
			if turn = !turn; turn {
				q.Enqueue(1)
			} else {
				q.Dequeue()
			}
		})
	}

	// pqbench: an even mix of push (random value) and pop over a prefilled
	// queue. The lock-free mound is the one user of internal/mcas.
	for name, m := range map[string]*mound.Mound{"mound.pto_op_ns": mound.NewPTO(0, 0), "mound.lockfree_op_ns": mound.New(0)} {
		r := newRNG(11, 11)
		for i := 0; i < 1024; i++ {
			m.Insert(int64(r.intn(1 << 18)))
		}
		p.ns(name, probeCalls, func() {
			if x := r.next(); x&1 == 0 {
				m.Insert(int64(x >> 20 % (1 << 18)))
			} else {
				m.RemoveMin()
			}
		})
	}

	// mbench: arrive with a random value, then depart, on a 64-leaf tree.
	type mind interface {
		Arrive(int, int32)
		Depart(int)
	}
	for name, m := range map[string]mind{"mindicator.pto_op_ns": mindicator.NewPTO(64, 0), "mindicator.lockfree_op_ns": mindicator.New(64)} {
		r := newRNG(13, 13)
		p.ns(name, probeCalls, func() {
			m.Arrive(5, int32(r.intn(100000)))
			m.Depart(5)
		})
	}
}

func probeServer(p *probes) {
	be, err := newHTTPBackend(false)
	if err != nil {
		return // no loopback: the http rows stay 0 and the run reports it elsewhere
	}
	defer be.close()
	cl := &be.cl[0]
	p.ns("http.healthz_roundtrip_ns", probeCalls/4, func() {
		resp, err := cl.hc.Get(cl.base + "/healthz")
		if err == nil {
			cl.rbuf.Reset()
			cl.rbuf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	})
	get := request{kind: kGet, set: setHot, idx: 10}
	put := request{kind: kPut, set: setHot, idx: 11}
	var out reply
	p.ns("http.op_roundtrip_ns", probeCalls/4, func() { be.call(0, &get, &out, nil, -1, 0) })

	var enc []byte
	p.ns("client.encode_ns", probeCalls, func() { _, enc = encodeRequest(enc, 0, &put) })
	var dec replyDecoder
	body := []byte(`{"ok":true,"changed":true,"shard":3}` + "\n")
	p.ns("client.decode_ns", probeCalls, func() { dec.decode(&put, 200, body, &out) })

	// The handler rows run the server's mux in memory, no sockets.
	hb := newHandlerBackend(false)
	defer hb.close()
	hc := &hb.cl[0]
	post := func(path, body string) func() {
		b := []byte(body)
		return func() { sink += uint64(hc.serve(hb.h, http.MethodPost, path, b)) }
	}
	inTurn := func(a, b func()) func() {
		turn := false
		return func() {
			if turn = !turn; turn {
				a()
			} else {
				b()
			}
		}
	}
	keys := func(n int) string {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(2000 + 2*i))
		}
		return b.String()
	}
	hget := post("/v1/op", `{"op":"get","struct":"hot","key":22}`)
	hput := inTurn(post("/v1/op", `{"op":"put","struct":"hot","key":24}`),
		post("/v1/op", `{"op":"del","struct":"hot","key":24}`))
	getNs := p.ns("server.handler_get_ns", probeCalls, hget)
	p.allocs("server.handler_get_allocs", probeCalls/4, hget)
	p.ns("server.handler_put_ns", probeCalls, hput)
	p.allocs("server.handler_put_allocs", probeCalls/4, hput)
	p.ns("server.handler_put32_ns", probeCalls/4, inTurn(
		post("/v1/op", `{"op":"put","struct":"hot","keys":[`+keys(32)+`]}`),
		post("/v1/op", `{"op":"del","struct":"hot","keys":[`+keys(32)+`]}`)))
	post("/v1/op", `{"op":"put","struct":"hot","keys":[`+keys(32)+`]}`)()
	p.ns("server.handler_moveall32_ns", probeCalls/4, inTurn(
		post("/v1/op", `{"op":"moveall","src":"hot","dst":"cold","keys":[`+keys(32)+`]}`),
		post("/v1/op", `{"op":"moveall","src":"cold","dst":"hot","keys":[`+keys(32)+`]}`)))
	p.ns("server.handler_txn6_ns", probeCalls/4, post("/v1/txn",
		`{"shard":0,"ops":[{"op":"get","struct":"hot","key":22},{"op":"put","struct":"hot","key":26},`+
			`{"op":"del","struct":"cold","key":26},{"op":"enqueue","value":7},{"op":"dequeue"},{"op":"push","value":9}]}`))
	// A batched put waits for its shard's epoch (500 µs by default), so the
	// row is mostly that wait; few calls.
	p.ns("server.handler_batched_put_ns", probeCalls/20, inTurn(
		post("/v1/op", `{"op":"put","struct":"hot","key":28,"batch":true}`),
		post("/v1/op", `{"op":"del","struct":"hot","key":28,"batch":true}`)))
	p.put("server.codec_self_ns", getNs-p.values["txn.readonly_1op_ns"], p.n["server.handler_get_ns"])

	reg := hb.srv.Registry()
	p.ns("telemetry.snapshot_ns", probeCalls/4, func() { sink += uint64(len(reg.Snapshot().Sites)) })
	treg := telemetry.NewRegistry()
	d := htm.NewDomain(0, 0)
	m := txn.NewIn(d, 0).WithPolicyAt(speculate.Fixed(0).WithMetrics(treg), "probe/txn")
	ctl := tune.New(tune.Config{Registry: treg, SitePrefix: "probe/", Interval: -1,
		Domain: d, MinStripes: d.Stripes(), Budgets: m.Site().Actuator()})
	p.ns("tune.step_ns", probeCalls/4, func() {
		m.Atomic(func(c *txn.Ctx) {})
		sink += uint64(ctl.Step())
	})
}

// ---- the modeled machine ----

// simRun runs body on every thread of a fresh n-thread machine and returns
// the host time (in reference ns), the machine's event counts and the
// simulated cycles the run took. build prepares the structure on the set-up thread (thread 0), whose
// clock it advances; the other threads first idle up to that clock so all of
// them contend from the start.
func (p *probes) simRun(n int, build func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread)) (float64, sim.Stats, uint64) {
	m := sim.New(sim.DefaultConfig(n))
	body := build(m, m.Thread(0))
	t0 := m.Thread(0).Now()
	before := m.Stats()
	var ends [16]uint64
	host, _ := p.timed(p.cal.sample(probeCalib), func() {
		m.Run(func(t *sim.Thread) {
			if now := t.Now(); now < t0 {
				t.Work(t0 - now)
			}
			body(t)
			ends[t.ID()] = t.Now()
		})
	})
	after := m.Stats()
	var end uint64
	for _, e := range ends {
		end = max(end, e)
	}
	return host, sim.Stats{
		Loads: after.Loads - before.Loads, Stores: after.Stores - before.Stores,
		CASes: after.CASes - before.CASes, Fences: after.Fences - before.Fences,
		Allocs: after.Allocs - before.Allocs, Frees: after.Frees - before.Frees,
		TxCommits: after.TxCommits - before.TxCommits, TxConflicts: after.TxConflicts - before.TxConflicts,
		TxCapacity: after.TxCapacity - before.TxCapacity, TxExplicit: after.TxExplicit - before.TxExplicit,
	}, end - t0
}

func events(s sim.Stats) float64 { return float64(s.Loads + s.Stores + s.CASes + s.Fences) }

func probeSim(p *probes) {
	p.ns("sim.new_ns", probeCalls/20, func() { sim.New(sim.DefaultConfig(8)) })

	iters := max(int(4000*p.scale), 50)
	// A Load/Store/CAS/Fence loop: each thread works on its own line and
	// every thread also touches one shared line.
	memLoop := func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		shared := setup.Alloc(sim.LineWords)
		return func(t *sim.Thread) {
			own := t.Alloc(sim.LineWords)
			for i := 0; i < iters; i++ {
				v := t.Load(own)
				t.Store(own, v+1)
				t.CAS(shared, t.Load(shared), uint64(i))
				t.Fence()
			}
		}
	}
	for _, n := range []int{1, 8} {
		host, st, _ := p.simRun(n, memLoop)
		name := map[int]string{1: "sim.host_ns_per_event_1t", 8: "sim.host_ns_per_event_8t"}[n]
		p.put(name, host/events(st), int(events(st)))
	}
	host, st, _ := p.simRun(8, func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		shared := setup.Alloc(sim.LineWords)
		return func(t *sim.Thread) {
			own := t.Alloc(sim.LineWords)
			for i := 0; i < iters; i++ {
				t.Atomic(func() {
					t.Store(own, t.Load(own)+1)
					if i%8 == 0 {
						t.Store(shared, t.Load(shared)+1)
					}
				})
			}
		}
	})
	txs := st.TxCommits + st.TxConflicts + st.TxCapacity + st.TxExplicit
	p.put("sim.host_ns_per_tx_8t", host/float64(txs), int(txs))
	p.put("sim.probe_tx_commit_ratio_8t", float64(st.TxCommits)/float64(txs), int(txs))

	// setbench on the simulated structures, range 512, 34% lookups, a fixed
	// number of operations per thread: host time per op, and the exact event
	// counts per op that §4.6 names as the sources of the speed-up.
	ops := max(int(2000*p.scale), 40)
	const keyRange = 512
	setLoop := func(insert, remove, contains func(*sim.Thread, uint64) bool) func(t *sim.Thread) {
		return func(t *sim.Thread) {
			for i := 0; i < ops; i++ {
				x := t.Rand()
				k := x%keyRange + 1
				switch r := int(x >> 40 % 100); {
				case r < 34:
					contains(t, k)
				case x>>52&1 == 0:
					insert(t, k)
				default:
					remove(t, k)
				}
			}
		}
	}
	prefill := func(setup *sim.Thread, insert func(*sim.Thread, uint64) bool) {
		for k := uint64(1); k <= keyRange; k += 2 {
			insert(setup, k*0x9E3779B1%keyRange+1)
		}
	}
	bstOf := func(kind simds.BSTKind) func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			b := simds.NewSimBST(setup, kind, false, m.Config().Threads)
			prefill(setup, b.Insert)
			return setLoop(b.Insert, b.Remove, b.Contains)
		}
	}
	hashOf := func(kind simds.HashKind) func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			h := simds.NewSimHash(setup, kind, 64, m.Config().Threads)
			prefill(setup, h.Insert)
			h.Stabilize(setup)
			return setLoop(h.Insert, h.Remove, h.Contains)
		}
	}
	host, _, _ = p.simRun(8, hashOf(simds.HashPTO))
	p.put("simds.host_ns_per_op_hash_8t", host/float64(8*ops), 8*ops)
	host, _, _ = p.simRun(8, bstOf(simds.BSTPTO12))
	p.put("simds.host_ns_per_op_bst_8t", host/float64(8*ops), 8*ops)
	for name, kind := range map[string]simds.BSTKind{"lockfree": simds.BSTLockfree, "pto": simds.BSTPTO12} {
		_, st, _ := p.simRun(1, bstOf(kind))
		p.put("simds.fences_per_op_bst_"+name, float64(st.Fences)/float64(ops), ops)
		p.put("simds.cas_per_op_bst_"+name, float64(st.CASes)/float64(ops), ops)
	}
	for name, kind := range map[string]simds.HashKind{"lockfree": simds.HashLF, "pto": simds.HashPTO} {
		_, st, _ := p.simRun(1, hashOf(kind))
		p.put("simds.allocs_per_op_hash_"+name, float64(st.Allocs)/float64(ops), ops)
	}

	// Composed Moves between a simulated BST and hash table on 4 threads,
	// fast path and forced MultiCAS fallback (A8's two composed arms).
	moves := max(int(1000*p.scale), 20)
	moveOf := func(fallback bool) func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
		return func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread) {
			mgr := simtxn.New(0).ForceFallback(fallback)
			b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads)
			h := simds.NewSimHash(setup, simds.HashPTO, 64, m.Config().Threads)
			h.Stabilize(setup)
			for k := uint64(1); k <= 256; k += 2 {
				b.Insert(setup, k)
			}
			return func(t *sim.Thread) {
				for i := 0; i < moves; i++ {
					x := t.Rand()
					if k := x%256 + 1; x>>40&1 == 0 {
						simtxn.Move(mgr, t, b, h, k)
					} else {
						simtxn.Move(mgr, t, h, b, k)
					}
				}
			}
		}
	}
	perSimMs := func(cycles uint64) float64 {
		return float64(4*moves) / (float64(cycles) / sim.DefaultConfig(4).CyclesPerMs)
	}
	host, _, cycles := p.simRun(4, moveOf(false))
	p.put("simtxn.host_ns_per_move_4t", host/float64(4*moves), 4*moves)
	p.put("simtxn.move_fast_ops_per_simms_4t", perSimMs(cycles), 4*moves)
	_, _, cycles = p.simRun(4, moveOf(true))
	p.put("simtxn.move_fallback_ops_per_simms_4t", perSimMs(cycles), 4*moves)
}
