package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/server"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// The serve workloads drive one system three ways — the peel. Every level
// answers the same request type, so one client loop, one generator and one
// oracle serve all three:
//
//	L0 httpBackend     loopback HTTP/1.1, one keep-alive connection per client
//	L1 handlerBackend  Handler().ServeHTTP with an in-memory request and recorder
//	L2 directBackend   direct calls on identically built managers and structures
//
// L1 skips the kernel and net/http; L2 also skips the codec, routing,
// admission and the batcher.
type backend interface {
	// call performs r for client c and fills out; parent/req label any spans.
	call(c int, r *request, out *reply, sp *spanner, parent int32, req int64)
	// snap reads the counters the system under test exports.
	snap(s *counterSnap)
	close()
}

const serverShards = server.DefaultShards

// serverConfig is ptoserver's default configuration; fallback forces every
// composed operation down the MultiCAS path (the ptostress -readcap idiom).
// With no transactional capacity the speculation commit ratio is 0 by
// construction, which the admission layer would read as overload and answer
// with 429s — so the fallback server runs without the admission evaluator.
func serverConfig(fallback bool) server.Config {
	cfg := server.Config{Policy: speculate.Fixed(0)}
	if fallback {
		cfg.ReadCap, cfg.WriteCap, cfg.AdmitInterval = -1, -1, -1
	}
	return cfg
}

// ---- the wire codec of the benchmark's client (L0 and L1) ----

var setField = [numSets]string{`"hot"`, `"cold"`, `"index"`}

func appendKeys(b []byte, c int, idxs []int32) []byte {
	b = append(b, `,"keys":[`...)
	for i, k := range idxs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, keyOf(c, k), 10)
	}
	return append(b, ']')
}

// shardOfSlot is the server shard behind one of a client's two slots.
func shardOfSlot(c int, slot uint8) int { return c + clients*int(slot) }

// encodeRequest renders r as the server's JSON envelope and returns the
// route it posts to.
func encodeRequest(b []byte, c int, r *request) (string, []byte) {
	b = b[:0]
	op := func(name string) { b = append(append(b, `{"op":"`...), name...); b = append(b, '"') }
	strct := func(field string, set uint8) {
		b = append(append(append(b, `,"`...), field...), `":`...)
		b = append(b, setField[set]...)
	}
	num := func(field string, v int64) {
		b = append(append(append(b, `,"`...), field...), `":`...)
		b = strconv.AppendInt(b, v, 10)
	}
	switch r.kind {
	case kGet, kPut, kDel:
		op(kindNames[r.kind])
		strct("struct", r.set)
		num("key", keyOf(c, r.idx))
	case kPutN, kDelN:
		op(kindNames[r.kind][:3])
		strct("struct", r.set)
		b = appendKeys(b, c, r.idxs)
	case kMoveAll:
		op("moveall")
		strct("src", r.set)
		strct("dst", r.dst)
		b = appendKeys(b, c, r.idxs)
	case kEnqueue, kPush:
		op(kindNames[r.kind])
		num("value", r.val)
		num("shard", int64(shardOfSlot(c, r.slot)))
	case kDequeue, kPopMin:
		op(kindNames[r.kind])
		num("shard", int64(shardOfSlot(c, r.slot)))
	case kTxn:
		b = append(b, `{"shard":`...)
		b = strconv.AppendInt(b, int64(shardOfSlot(c, r.slot)), 10)
		b = append(b, `,"ops":[`...)
		for i, o := range r.body[:r.nbody] {
			if i > 0 {
				b = append(b, ',')
			}
			op(kindNames[o.kind])
			switch o.kind {
			case kGet, kPut, kDel:
				strct("struct", o.set)
				num("key", keyOf(c, o.idx))
			case kEnqueue, kPush:
				num("value", o.val)
			}
			b = append(b, '}')
		}
		return "/v1/txn", append(b, "]}"...)
	default:
		panic("serve workloads do not generate " + kindNames[r.kind])
	}
	return "/v1/op", append(b, '}')
}

// replyDecoder turns a response body into a reply, reusing its structs.
type replyDecoder struct {
	op  server.Response
	txn server.TxnResponse
}

func (d *replyDecoder) decode(r *request, status int, body []byte, out *reply) {
	*out = reply{status: status}
	if r.kind == kTxn {
		// A fresh struct each time: encoding/json reuses slice elements
		// without zeroing them, and the results omit false and 0.
		d.txn = server.TxnResponse{}
		if err := json.Unmarshal(body, &d.txn); err != nil {
			out.status = -1
			return
		}
		out.shard = d.txn.Shard
		out.nres = min(len(d.txn.Results), maxBody)
		for i, res := range d.txn.Results[:out.nres] {
			out.res[i] = opResult{found: res.Found, changed: res.Changed, value: res.Value}
		}
		return
	}
	d.op = server.Response{}
	if err := json.Unmarshal(body, &d.op); err != nil {
		out.status = -1
		return
	}
	out.shard, out.found, out.changed = d.op.Shard, d.op.Found, d.op.Changed
	out.moved, out.value = d.op.Moved, d.op.Value
}

// ---- L0: loopback HTTP ----

type httpBackend struct {
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	cl   [clients]httpClient
}

type httpClient struct {
	hc   *http.Client
	base string
	enc  []byte
	body bytes.Reader
	rbuf bytes.Buffer
	dec  replyDecoder
}

func newHTTPBackend(fallback bool) (*httpBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	b := &httpBackend{srv: server.New(serverConfig(fallback)), done: make(chan struct{})}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() {
		defer close(b.done)
		b.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	for c := range b.cl {
		// One transport per client: each generator goroutine keeps exactly
		// one keep-alive connection.
		b.cl[c].hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true}}
		b.cl[c].base = "http://" + ln.Addr().String()
	}
	return b, nil
}

func (b *httpBackend) call(c int, r *request, out *reply, sp *spanner, parent int32, req int64) {
	cl := &b.cl[c]
	s := sp.begin("client.encode", parent, req)
	path, body := encodeRequest(cl.enc, c, r)
	cl.enc = body
	sp.end(s)

	s = sp.begin("http.transport", parent, req)
	status, err := cl.post(path, body)
	sp.end(s)
	if err != nil {
		*out = reply{status: -1}
		return
	}
	s = sp.begin("client.decode", parent, req)
	cl.dec.decode(r, status, cl.rbuf.Bytes(), out)
	sp.end(s)
}

// post sends one request and reads the whole reply into rbuf, which returns
// the connection to the keep-alive pool.
func (cl *httpClient) post(path string, body []byte) (int, error) {
	cl.body.Reset(body)
	hreq, err := http.NewRequest(http.MethodPost, cl.base+path, &cl.body)
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	cl.rbuf.Reset()
	if _, err := cl.rbuf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (b *httpBackend) snap(s *counterSnap) {
	s.srv = b.srv.Stats()
	s.tel = b.srv.Registry().Snapshot()
}

func (b *httpBackend) close() {
	for c := range b.cl {
		b.cl[c].hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx)
	<-b.done
	b.srv.Close()
}

// ---- L1: the handler in memory ----

// recorder is the smallest http.ResponseWriter: status and body, reused.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

type handlerBackend struct {
	srv *server.Server
	h   http.Handler
	cl  [clients]handlerClient
}

type handlerClient struct {
	enc  []byte
	body bytes.Reader
	rec  recorder
	dec  replyDecoder
}

func newHandlerBackend(fallback bool) *handlerBackend {
	b := &handlerBackend{srv: server.New(serverConfig(fallback))}
	b.h = b.srv.Handler()
	for c := range b.cl {
		b.cl[c].rec.hdr = make(http.Header)
	}
	return b
}

// serve runs one in-memory request through the handler.
func (cl *handlerClient) serve(h http.Handler, method, path string, body []byte) int {
	cl.body.Reset(body)
	hreq, err := http.NewRequest(method, path, &cl.body)
	if err != nil {
		return -1
	}
	cl.rec.code = http.StatusOK
	cl.rec.buf.Reset()
	h.ServeHTTP(&cl.rec, hreq)
	return cl.rec.code
}

func (b *handlerBackend) call(c int, r *request, out *reply, sp *spanner, parent int32, req int64) {
	cl := &b.cl[c]
	s := sp.begin("client.encode", parent, req)
	path, body := encodeRequest(cl.enc, c, r)
	cl.enc = body
	sp.end(s)

	s = sp.begin("server.handler", parent, req)
	status := cl.serve(b.h, http.MethodPost, path, body)
	sp.end(s)

	s = sp.begin("client.decode", parent, req)
	cl.dec.decode(r, status, cl.rec.buf.Bytes(), out)
	sp.end(s)
}

func (b *handlerBackend) snap(s *counterSnap) {
	s.srv = b.srv.Stats()
	s.tel = b.srv.Registry().Snapshot()
}

func (b *handlerBackend) close() { b.srv.Close() }

// ---- L2: direct calls below the server ----

// directShard mirrors one server shard: its own striped domain, manager,
// five structures and semtx manager, built the way the server builds them.
type directShard struct {
	m    *txn.Manager
	sem  *semtx.Manager[*txn.Ctx, int64]
	sets [2]txn.Set
	in   txn.Queue
	pq   txn.PQ
}

type directBackend struct {
	reg     *telemetry.Registry
	shards  [serverShards]*directShard
	shardOf *[clients][]int8 // learned from a server at L0/L1: routing is the server's
	groups  [clients][serverShards][]int64
}

func newDirectBackend(fallback bool, shardOf *[clients][]int8) *directBackend {
	b := &directBackend{reg: telemetry.NewRegistry(), shardOf: shardOf}
	for i := range b.shards {
		d := htm.NewDomainStripes(0, 0, 0)
		if fallback {
			d.SetCapacity(-1, -1)
		}
		name := fmt.Sprintf("shard%d/txn", i)
		m := txn.NewIn(d, 0).WithPolicyAt(speculate.Fixed(0).WithMetrics(b.reg), name)
		sh := &directShard{m: m, in: msqueue.NewPTOIn(d, 0), pq: mound.NewPTOIn(d, 12, 0)}
		sh.sets[setHot] = hashtable.NewPTOTableIn(d, 64, 0)
		sh.sets[setCold] = skiplist.NewPTOSetIn(d, 0)
		r := m.Structures()
		r.AddSet(server.DefaultSet, sh.sets[setHot])
		r.AddSet(server.DefaultSpill, sh.sets[setCold])
		r.AddQueue(server.DefaultQueue, sh.in)
		r.AddQueue("egress", msqueue.NewPTOIn(d, 0))
		r.AddPQ(server.DefaultPQ, sh.pq)
		sh.sem = semtx.New(m, r).WithTelemetry(b.reg.Open(name))
		b.shards[i] = sh
	}
	return b
}

// group partitions a request's keys by owning shard, preserving order.
func (b *directBackend) group(c int, idxs []int32) *[serverShards][]int64 {
	g := &b.groups[c]
	for i := range g {
		g[i] = g[i][:0]
	}
	for _, k := range idxs {
		s := b.shardOf[c][k]
		g[s] = append(g[s], keyOf(c, k))
	}
	return g
}

func (b *directBackend) call(c int, r *request, out *reply, sp *spanner, parent int32, req int64) {
	s := sp.begin("txn.direct", parent, req)
	b.exec(c, r, out)
	sp.end(s)
}

func (b *directBackend) exec(c int, r *request, out *reply) {
	*out = reply{status: 200}
	switch r.kind {
	case kGet:
		sh, key := b.shards[b.shardOf[c][r.idx]], keyOf(c, r.idx)
		sh.m.ReadOnly(func(x *txn.Ctx) { out.found = sh.sets[r.set].TxContains(x, key) })
	case kPut:
		sh, key := b.shards[b.shardOf[c][r.idx]], keyOf(c, r.idx)
		sh.m.Atomic(func(x *txn.Ctx) { out.changed = sh.sets[r.set].TxInsert(x, key) })
	case kDel:
		sh, key := b.shards[b.shardOf[c][r.idx]], keyOf(c, r.idx)
		sh.m.Atomic(func(x *txn.Ctx) { out.changed = sh.sets[r.set].TxRemove(x, key) })
	case kPutN, kDelN:
		for i, keys := range b.group(c, r.idxs) {
			if len(keys) == 0 {
				continue
			}
			sh, n := b.shards[i], 0
			sh.m.Atomic(func(x *txn.Ctx) {
				n = 0
				for _, k := range keys {
					if r.kind == kPutN && sh.sets[r.set].TxInsert(x, k) ||
						r.kind == kDelN && sh.sets[r.set].TxRemove(x, k) {
						n++
					}
				}
			})
			out.moved += n
		}
		out.changed = out.moved > 0
	case kMoveAll:
		for i, keys := range b.group(c, r.idxs) {
			if len(keys) > 0 {
				sh := b.shards[i]
				out.moved += txn.MoveAll(sh.m, sh.sets[r.set], sh.sets[r.dst], keys...)
			}
		}
	case kEnqueue:
		sh := b.shards[shardOfSlot(c, r.slot)]
		sh.m.Atomic(func(x *txn.Ctx) { sh.in.TxEnqueue(x, r.val) })
	case kDequeue:
		sh := b.shards[shardOfSlot(c, r.slot)]
		sh.m.Atomic(func(x *txn.Ctx) { out.value, out.found = sh.in.TxDequeue(x) })
	case kPush:
		sh := b.shards[shardOfSlot(c, r.slot)]
		sh.m.Atomic(func(x *txn.Ctx) { sh.pq.TxPush(x, r.val) })
	case kPopMin:
		sh := b.shards[shardOfSlot(c, r.slot)]
		sh.m.Atomic(func(x *txn.Ctx) { out.value, out.found = sh.pq.TxPopMin(x) })
	case kTxn:
		sh := b.shards[shardOfSlot(c, r.slot)]
		if _, err := sh.sem.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
			runBody(tx, c, r, out, server.DefaultQueue, server.DefaultPQ)
			return nil
		}); err != nil {
			out.status = -1
		}
	default:
		panic("serve workloads do not generate " + kindNames[r.kind])
	}
}

// runBody executes a multi-op body against an open transaction; semtx may
// re-run it, so it rewrites every result each time.
func runBody(tx *semtx.Tx[*txn.Ctx, int64], c int, r *request, out *reply, queue, pq string) {
	out.nres = r.nbody
	for i, o := range r.body[:r.nbody] {
		res := opResult{}
		switch o.kind {
		case kGet:
			res.found = tx.Get(setNames[o.set], keyOf(c, o.idx))
		case kPut:
			res.changed = tx.Put(setNames[o.set], keyOf(c, o.idx))
		case kDel:
			res.changed = tx.Delete(setNames[o.set], keyOf(c, o.idx))
		case kEnqueue:
			tx.Enqueue(queue, o.val)
		case kDequeue:
			res.value, res.found = tx.Dequeue(queue)
		case kPush:
			tx.Push(pq, o.val)
		case kPopMin:
			res.value, res.found = tx.PopMin(pq)
		}
		out.res[i] = res
	}
}

func (b *directBackend) snap(s *counterSnap) { s.tel = b.reg.Snapshot() }
func (b *directBackend) close()              {}

// ---- one server instance under load: set-up, measured loop, sweep ----

// serveRun is one system instance with its two clients' state.
type serveRun struct {
	w       *world
	be      backend
	gen     func(*generator, *request)
	models  [clients]*model
	gens    [clients]*generator
	shardOf [clients][]int8
	learn   bool         // the backend reports shards: record them from get replies
	retries [clients]int // requests sent again after a 429
	tally   tally
}

// A 429 is the server refusing a mutating request while a shard's commit
// ratio is under its admission floor, which one stalled core of a shared host
// can cause for an evaluation interval (100 ms). Nothing has been applied, so
// the client does what a caller would: it waits and sends the request again,
// and the refusal shows as that request's latency. A refusal that outlasts
// shedPatience stands, and the oracle counts it.
const (
	shedBackoff  = time.Millisecond
	shedPatience = 2 * time.Second
)

// call sends r for client c, again while the server sheds it.
func (sr *serveRun) call(c int, r *request, out *reply, sp *spanner, parent int32, req int64) {
	sr.be.call(c, r, out, sp, parent, req)
	for waited := time.Duration(0); out.status == http.StatusTooManyRequests && waited < shedPatience; waited += shedBackoff {
		sr.retries[c]++
		time.Sleep(shedBackoff)
		sr.be.call(c, r, out, sp, parent, req)
	}
}

// do runs one request for client c through the oracle.
func (sr *serveRun) do(c int, r *request, t *tally) {
	var exp, got reply
	sr.models[c].apply(c, r, &exp)
	sr.call(c, r, &got, nil, -1, 0)
	t.check(r, &exp, &got)
	if sr.learn && r.kind == kGet && got.shard >= 0 && got.shard < serverShards {
		sr.shardOf[c][r.idx] = int8(got.shard)
	}
}

// setupServe builds a system and brings it to its starting state, timing the
// whole of it: construct, connect, learn which shard owns each key (from the
// shard field of get replies — the txn bodies and the direct backend need
// it), prefill the sets to their half-full shape, and prefill each client's
// queues and PQs on its owned shards. shardOf, when non-nil, supplies the
// routing for a backend that cannot report it.
func setupServe(w *world, gen func(*generator, *request), mk func() (backend, error),
	shardOf *[clients][]int8) (*serveRun, time.Duration, error) {
	start := time.Now()
	be, err := mk()
	if err != nil {
		return nil, 0, err
	}
	sr := &serveRun{w: w, be: be, gen: gen, learn: shardOf == nil}
	var wg sync.WaitGroup
	var tallies [clients]tally
	for c := 0; c < clients; c++ {
		sr.models[c] = newModel()
		sr.gens[c] = newGenerator(w, c, sr.models[c], 1)
		sr.shardOf[c] = make([]int8, keysPerClient)
		if shardOf != nil {
			copy(sr.shardOf[c], shardOf[c])
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sr.setupClient(c, &tallies[c])
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		sr.tally.add(tallies[c])
	}
	return sr, time.Since(start), nil
}

func (sr *serveRun) setupClient(c int, t *tally) {
	g := sr.gens[c]
	g.next = func(r *request) { sr.gen(g, r) }
	var r request
	for idx := int32(0); idx < keysPerClient; idx++ {
		r = request{kind: kGet, set: setHot, idx: idx}
		sr.do(c, &r, t)
	}
	for idx, s := range sr.shardOf[c] {
		if slot := (int(s) - c) / clients; int(s)%clients == c {
			g.home[slot] = append(g.home[slot], int32(idx))
		}
	}
	for set := uint8(setHot); set <= setCold; set++ {
		r = request{kind: kPutN, set: set}
		for rank, idx := range sr.w.perm[c] {
			if prefilled(int(set), rank) {
				r.idxs = append(r.idxs, idx)
			}
			if len(r.idxs) == envelopeKeys || rank == keysPerClient-1 && len(r.idxs) > 0 {
				sr.do(c, &r, t)
				r.idxs = r.idxs[:0]
			}
		}
	}
	for slot := uint8(0); slot < 2; slot++ {
		for i := 0; i < queuePrefill; i++ {
			r = request{kind: kEnqueue, slot: slot, val: g.value()}
			sr.do(c, &r, t)
			r = request{kind: kPush, slot: slot, val: int64(g.r.intn(1<<20))*clients + int64(c)}
			sr.do(c, &r, t)
		}
	}
}

// sweep checks the final state against the models: every key's membership in
// both sets, then each owned queue and PQ drained to empty in model order
// (membership and conservation).
func (sr *serveRun) sweep() {
	var wg sync.WaitGroup
	var tallies [clients]tally
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r request
			for set := uint8(setHot); set <= setCold; set++ {
				for idx := int32(0); idx < keysPerClient; idx++ {
					r = request{kind: kGet, set: set, idx: idx}
					sr.do(c, &r, &tallies[c])
				}
			}
			for slot := uint8(0); slot < 2; slot++ {
				for n := len(sr.models[c].queues[slot]); n >= 0; n-- {
					r = request{kind: kDequeue, slot: slot}
					sr.do(c, &r, &tallies[c])
				}
				for n := sr.models[c].pqs[slot].Len(); n >= 0; n-- {
					r = request{kind: kPopMin, slot: slot}
					sr.do(c, &r, &tallies[c])
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		sr.tally.add(tallies[c])
	}
}

// finish sweeps, closes the system and returns everything the oracle saw.
func (sr *serveRun) finish() tally {
	sr.sweep()
	sr.be.close()
	return sr.tally
}

// shedRetries is how many times the clients sent a request again after a 429.
func (sr *serveRun) shedRetries() (n int) {
	for _, r := range sr.retries {
		n += r
	}
	return n
}

// load runs the two closed-loop clients under spec.
func (sr *serveRun) load(spec loadSpec) phaseResult {
	return runClients(spec, sr.be.snap, func(c int, sp *spanner) clientStep {
		g, m := sr.gens[c], sr.models[c]
		var r request
		var exp, got reply
		var n int64
		return func(t *tally) int {
			n++
			root := sp.begin("request", -1, n)
			s := sp.begin("generate", root, n)
			g.next(&r)
			m.apply(c, &r, &exp)
			sp.end(s)
			sr.call(c, &r, &got, sp, root, n)
			s = sp.begin("oracle.check", root, n)
			t.check(&r, &exp, &got)
			sp.end(s)
			sp.end(root)
			return r.keys()
		}
	})
}

// ---- the workload: phases, metrics ----

// runServe measures a serve workload. Untraced: phase A on the default
// server gives throughput, latency and memory; phase B runs the same stream
// against a server whose domains have no transactional capacity, so every
// composed operation takes the MultiCAS fallback, and pto_speedup is A ÷ B.
// Both servers live for the whole run and are measured in turns. Traced: see
// traceServe.
func runServe(name string, rc runConfig) (*result, error) {
	gen := (*generator).genPoint
	if name == "serve-envelope" {
		gen = (*generator).genEnvelope
	}
	w := newWorld(rc.seed)
	l0 := func(fallback bool) func() (backend, error) {
		return func() (backend, error) { return newHTTPBackend(fallback) }
	}
	if rc.trace {
		return traceServe(name, rc, w, gen, l0(false))
	}

	res := newResult(name, rc)
	var setups []float64
	var err error
	retries := 0
	setup := func(fallback bool) *serveRun {
		var sr *serveRun
		setups = append(setups, onRefClock(func() (d time.Duration) {
			sr, d, err = setupServe(w, gen, l0(fallback), nil)
			return d
		}))
		return sr
	}
	// Set-up is repeated so that setup_s is a median: extraSetups instances
	// are built and discarded, then one per phase is kept.
	for i := 0; i < rc.extraSetups; i++ {
		sr := setup(false)
		if err != nil {
			return nil, err
		}
		sr.be.close()
		res.tally.add(sr.tally)
		retries += sr.shedRetries()
	}

	var runs [2]*serveRun
	for i := range runs {
		if runs[i] = setup(i == 1); err != nil {
			return nil, err
		}
	}
	phases := alternate(rc, [2]float64{0.6, 0.4}, func(i int, spec loadSpec) phaseResult {
		return runs[i].load(spec)
	})
	for i, sr := range runs {
		res.tally.add(phases[i].tally)
		res.tally.add(sr.finish())
		retries += sr.shedRetries()
	}
	res.setE2E(setups, phases[0], phases[1])
	res.info("shed_retries", float64(retries), "count", res.tally.attempted)
	return res, nil
}
