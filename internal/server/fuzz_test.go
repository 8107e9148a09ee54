package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The wire's two decoders under go test's fuzzer. Every input meets two
// fresh servers holding the same small population — one on the default
// capacity, one whose capacity forces every composed operation down the
// MultiCAS fallback — so a failure reproduces from its input alone. The invariant, for any body at all: the handler does not
// panic, the status is one the API documents (never a 5xx), the reply decodes
// as the route's response type and says ok exactly when the status is 200 —
// and afterwards the structures hold what the population and the reply add up
// to: keys over hot ∪ cold, values over both queues, values over the
// scheduler, counted on every shard.

// population is how many elements the three kinds of structure hold, summed
// over the shards.
type population struct{ keys, queued, scheduled int }

// apply books what the reply says one committed single-structure op did:
// changed is how many keys a put or del changed, found whether a dequeue or
// popmin came back with a value.
func (p *population) apply(op string, changed int, found bool) {
	switch op {
	case OpPut:
		p.keys += changed
	case OpDel:
		p.keys -= changed
	case OpEnqueue:
		p.queued++
	case OpDequeue:
		p.queued -= b2i(found)
	case OpPush:
		p.scheduled++
	case OpPopMin:
		p.scheduled -= b2i(found)
	}
}

const (
	fuzzShards   = 2
	fuzzHotKeys  = 32 // keys 0..31 on hot, on the shard that owns each
	fuzzColdKeys = 16 // odd keys 33..63 on cold, likewise
)

// fuzzConfig is one of the servers every input meets.
type fuzzConfig struct {
	name string
	cfg  Config
}

// fuzzConfigs: the fast path, and the forced MultiCAS fallback.
var fuzzConfigs = []fuzzConfig{
	{"fast", Config{Shards: fuzzShards}},
	{"forced fallback", Config{Shards: fuzzShards, ReadCap: -1, WriteCap: -1}},
}

// fuzzServer builds the populated server and says what it holds.
func fuzzServer(cfg Config) (*Server, population) {
	srv := New(cfg)
	var p population
	for k := int64(0); k < fuzzHotKeys; k++ {
		sh := srv.shardFor(k)
		sh.put(sh.set("", DefaultSet), k)
		p.keys++
	}
	for i := int64(0); i < fuzzColdKeys; i++ {
		k := fuzzHotKeys + 2*i + 1
		sh := srv.shardFor(k)
		sh.put(sh.set("", DefaultSpill), k)
		p.keys++
	}
	for _, sh := range srv.shards {
		for v := int64(1); v <= 3; v++ {
			sh.enqueue(sh.queue("", DefaultQueue), 100+v)
			sh.push(sh.pq("", DefaultPQ), 200+v)
			p.queued++
			p.scheduled++
		}
		sh.enqueue(sh.queue("egress", ""), 104)
		p.queued++
	}
	return srv, p
}

// count scans the server: every shard's hot and cold for the population's
// keys and for every number the request named (a key can only have come from
// there: a key, a pushed or enqueued value that a movemin later lands on a
// set), then drains the queues and the schedulers.
func count(srv *Server, named []int64) population {
	universe := map[int64]bool{}
	for k := int64(0); k < fuzzHotKeys+2*fuzzColdKeys; k++ {
		universe[k] = true
	}
	for v := int64(201); v <= 203; v++ {
		universe[v] = true
	}
	for _, k := range named {
		if validKey(k) { // the skiplist reports its tail's key present
			universe[k] = true
		}
	}
	var p population
	for _, sh := range srv.shards {
		for _, name := range []string{DefaultSet, DefaultSpill} {
			set := sh.set(name, "")
			for k := range universe {
				if sh.get(set, k) {
					p.keys++
				}
			}
		}
		for _, name := range []string{DefaultQueue, "egress"} {
			for q := sh.queue(name, ""); ; p.queued++ {
				if _, ok := sh.dequeue(q); !ok {
					break
				}
			}
		}
		for pq := sh.pq("", DefaultPQ); ; p.scheduled++ {
			if _, ok := sh.popMin(pq); !ok {
				break
			}
		}
	}
	return p
}

// serve posts body to path in memory and checks what holds for any reply;
// resp receives the decoded body.
func serve(t *testing.T, srv *Server, path string, body []byte, resp any) int {
	t.Helper()
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch w.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict:
	default:
		t.Fatalf("%s %q: status %d: %s", path, body, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
		t.Fatalf("%s %q: reply %q does not decode: %v", path, body, w.Body, err)
	}
	return w.Code
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func FuzzOpEnvelope(f *testing.F) {
	// The handler tests' envelopes, as the wire carries them.
	pin := 0
	for _, req := range []Request{
		{Op: "frobnicate"},
		{Op: OpGet, Struct: "nope", Key: 1},
		{Op: OpGet, Key: 7},
		{Op: OpPut, Key: 7},
		{Op: OpPut, Key: 40},
		{Op: OpDel, Key: 7},
		{Op: OpPut, Keys: []int64{20, 21, 22, 23, 24, 40, 40}},
		{Op: OpDel, Struct: DefaultSpill, Keys: []int64{33, 35, 34}},
		{Op: OpMove, Key: 11},
		{Op: OpMove, Src: DefaultSpill, Dst: DefaultSet, Key: 33},
		{Op: OpMove, Src: DefaultSet, Dst: DefaultSet, Key: 3},
		{Op: OpMoveAll, Keys: []int64{1, 2, 3, 33}},
		{Op: OpMoveAll, Src: "nope", Keys: []int64{1, 2}},
		{Op: OpEnqueue, Value: 42, Shard: &pin},
		{Op: OpDequeue, Struct: "egress", Shard: &pin},
		{Op: OpTransfer, N: 2, Shard: &pin},
		{Op: OpTransfer, N: 65},
		{Op: OpTransfer, N: -1},
		{Op: OpPush, Value: 9, Shard: &pin},
		{Op: OpPush, Value: -1},
		{Op: OpPopMin, Shard: &pin},
		{Op: OpMoveToPQ, Key: 31},
		{Op: OpMoveToPQ, Key: -5},
		{Op: OpMoveMin, Shard: &pin},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"op":`))
	f.Add([]byte(`{"op":"put","key":8,"batch":true}`))
	f.Add([]byte(`{"op":"get","key":1,"shard":99}`))
	f.Add([]byte(`{"op":"del","key":9223372036854775807,"struct":"cold"}`))
	f.Add([]byte(`{"op":"put","keys":[-9223372036854775807,9223372036854775806]} trailing`))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, c := range fuzzConfigs {
			fuzzOp(t, c, body)
		}
	})
}

// fuzzOp serves one /v1/op body to a fresh server under c and checks the
// reply against what the structures hold afterwards.
func fuzzOp(t *testing.T, c fuzzConfig, body []byte) {
	srv, want := fuzzServer(c.cfg)
	var resp Response
	code := serve(t, srv, "/v1/op", body, &resp)
	if resp.OK != (code == http.StatusOK) || (!resp.OK && resp.Err == "") {
		t.Fatalf("%s: %q: status %d with reply %+v", c.name, body, code, resp)
	}
	var req Request
	if code == http.StatusOK {
		// The handler decoded it, so this does: what the reply says happened.
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%s: %q: 200 for a body that does not decode: %v", c.name, body, err)
		}
		changed := b2i(resp.Changed)
		if len(req.Keys) > 0 {
			changed = resp.Moved
		}
		switch req.Op {
		case OpMoveMin:
			want.scheduled -= resp.Moved
			want.keys += resp.Moved
		case OpMoveToPQ:
			want.keys -= resp.Moved
			want.scheduled += resp.Moved
		default: // the other moves conserve each kind
			want.apply(req.Op, changed, resp.Found)
		}
	}
	if got := count(srv, append(req.Keys, req.Key, req.Value)); got != want {
		t.Fatalf("%s: %q → %d %+v: the structures hold %+v, the reply adds up to %+v", c.name, body, code, resp, got, want)
	}
}

func FuzzTxnBody(f *testing.F) {
	// The /v1/txn tests' bodies.
	pin, bad := 0, 9
	for _, req := range []TxnRequest{
		{},
		{Shard: &pin, Ops: []TxnOp{
			{Op: OpGet, Key: 50, Assert: boolp(false)},
			{Op: OpPut, Key: 50},
			{Op: OpEnqueue, Value: 5},
			{Op: OpPush, Value: 5},
		}},
		{Shard: &pin, Ops: []TxnOp{{Op: OpGet, Key: 5}, {Op: OpDequeue}, {Op: OpPopMin}}},
		{Ops: []TxnOp{
			{Op: OpPut, Key: 77, Assert: boolp(true)},
			{Op: OpGet, Key: 77, Assert: boolp(true)},
			{Op: OpEnqueue, Struct: "egress", Value: 9},
			{Op: OpDequeue, Struct: "egress", Assert: boolp(true)},
			{Op: OpPush, Value: 3},
			{Op: OpPopMin, Assert: boolp(true)},
		}},
		{Shard: &pin, Ops: []TxnOp{{Op: OpPut, Key: 50}, {Op: OpGet, Key: 51, Assert: boolp(true)}}},
		{Ops: []TxnOp{{Op: OpPopMin}, {Op: OpPopMin}}},
		{Ops: []TxnOp{{Op: OpDequeue}, {Op: OpDequeue}}},
		{Ops: []TxnOp{{Op: OpMove, Key: 1}}},
		{Ops: []TxnOp{{Op: OpGet, Struct: "nope", Key: 1}}},
		{Shard: &bad, Ops: []TxnOp{{Op: OpGet, Key: 1}}},
		{Ops: []TxnOp{{Op: OpPut, Key: 123}, {Op: OpEnqueue, Value: 7}}},
		{Ops: []TxnOp{{Op: OpDel, Key: 3}, {Op: OpPut, Key: 3}, {Op: OpDel, Key: 3, Assert: boolp(true)}}},
		{Shard: &pin, Ops: []TxnOp{{Op: OpPut, Key: 77}, {Op: OpPush, Value: -1}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"ops":[`))
	f.Add([]byte(`{"ops":[{"op":"put","key":1,"assert":null},{"op":"push","value":4611686018427387904}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, c := range fuzzConfigs {
			fuzzTxn(t, c, body)
		}
	})
}

// fuzzTxn serves one /v1/txn body to a fresh server under c and checks the
// reply against what the structures hold afterwards.
func fuzzTxn(t *testing.T, c fuzzConfig, body []byte) {
	srv, want := fuzzServer(c.cfg)
	var resp TxnResponse
	code := serve(t, srv, "/v1/txn", body, &resp)
	if resp.OK != (code == http.StatusOK) || (!resp.OK && resp.Err == "") {
		t.Fatalf("%s: %q: status %d with reply %+v", c.name, body, code, resp)
	}
	var req TxnRequest
	var named []int64
	if code == http.StatusOK {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%s: %q: 200 for a body that does not decode: %v", c.name, body, err)
		}
		if len(resp.Results) != len(req.Ops) {
			t.Fatalf("%s: %q: %d results for %d ops", c.name, body, len(resp.Results), len(req.Ops))
		}
		for i, op := range req.Ops {
			named = append(named, op.Key, op.Value)
			want.apply(op.Op, b2i(resp.Results[i].Changed), resp.Results[i].Found)
		}
	}
	if got := count(srv, named); got != want {
		t.Fatalf("%s: %q → %d %+v: the structures hold %+v, the reply adds up to %+v", c.name, body, code, resp, got, want)
	}
}
