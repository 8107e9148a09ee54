package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/mound"
)

// newTestServer starts a server behind httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doOp posts one envelope and decodes the reply.
func doOp(t *testing.T, ts *httptest.Server, req Request) (Response, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.Post(ts.URL+"/v1/op", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, hr.StatusCode
}

func TestHandlerRejectsMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	hr, err := http.Post(ts.URL+"/v1/op", "application/json", strings.NewReader(`{"op":`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: got %d, want 400", hr.StatusCode)
	}
}

func TestHandlerRejectsUnknownOp(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	resp, code := doOp(t, ts, Request{Op: "frobnicate"})
	if code != http.StatusBadRequest || resp.OK {
		t.Fatalf("unknown op: got %d ok=%v, want 400", code, resp.OK)
	}
}

func TestHandlerRejectsUnknownStructure(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	for _, req := range []Request{
		{Op: OpGet, Struct: "nope", Key: 1},
		{Op: OpPut, Struct: "nope", Key: 1},
		{Op: OpMove, Src: "nope", Key: 1},
		{Op: OpMove, Dst: "nope", Key: 1},
		{Op: OpEnqueue, Struct: "nope", Value: 1},
		{Op: OpPopMin, Struct: "nope"},
		{Op: OpMoveAll, Src: "nope", Keys: []int64{1, 2}},
	} {
		resp, code := doOp(t, ts, req)
		if code != http.StatusNotFound || resp.OK {
			t.Errorf("%s with unknown structure: got %d ok=%v, want 404", req.Op, code, resp.OK)
		}
		if !strings.Contains(resp.Err, "nope") {
			t.Errorf("%s error %q does not name the structure", req.Op, resp.Err)
		}
	}
}

func TestHandlerRejectsOversizedBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2, MaxBatch: 8})
	keys := make([]int64, 9)
	for i := range keys {
		keys[i] = int64(i)
	}
	for _, op := range []string{OpPut, OpMoveAll} {
		resp, code := doOp(t, ts, Request{Op: op, Keys: keys})
		if code != http.StatusBadRequest || resp.OK {
			t.Errorf("%s with 9 keys (max 8): got %d ok=%v, want 400", op, code, resp.OK)
		}
	}
	// At the limit it is accepted.
	if resp, code := doOp(t, ts, Request{Op: OpPut, Keys: keys[:8]}); code != http.StatusOK || !resp.OK {
		t.Fatalf("put of exactly MaxBatch keys: got %d ok=%v, want 200", code, resp.OK)
	}

	// A transfer's n sizes its publication too: over the limit it is a 400
	// naming the field and moves nothing, at the limit it drains the queue.
	pin := 0
	for v := int64(1); v <= 3; v++ {
		doOp(t, ts, Request{Op: OpEnqueue, Shard: &pin, Value: v})
	}
	before := srv.Stats().Publications
	resp, code := doOp(t, ts, Request{Op: OpTransfer, Shard: &pin, N: 9})
	if code != http.StatusBadRequest || resp.OK || !strings.Contains(resp.Err, "n of 9") {
		t.Errorf("transfer n=9 (max 8): got %d ok=%v err=%q, want 400 naming n", code, resp.OK, resp.Err)
	}
	if got := srv.Stats().Publications; got != before {
		t.Errorf("refused transfer published %d times", got-before)
	}
	// A negative n is refused the same way (it used to run as n = 1).
	resp, code = doOp(t, ts, Request{Op: OpTransfer, Shard: &pin, N: -1})
	if code != http.StatusBadRequest || resp.OK || !strings.Contains(resp.Err, "n of -1") {
		t.Errorf("transfer n=-1: got %d ok=%v err=%q, want 400 naming n", code, resp.OK, resp.Err)
	}
	if got := srv.Stats().Publications; got != before {
		t.Errorf("refused transfers published %d times", got-before)
	}
	if resp, code := doOp(t, ts, Request{Op: OpTransfer, Shard: &pin, N: 8}); code != http.StatusOK || resp.Moved != 3 {
		t.Errorf("transfer n=8 of a 3-deep queue: got %d moved=%d, want 200 moved=3", code, resp.Moved)
	}
}

func TestHandlerRejectsBadMethodAndShard(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	hr, err := http.Get(ts.URL + "/v1/op")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/op: got %d, want 405", hr.StatusCode)
	}
	bad := 99
	resp, code := doOp(t, ts, Request{Op: OpGet, Key: 1, Shard: &bad})
	if code != http.StatusBadRequest || resp.OK {
		t.Fatalf("out-of-range shard: got %d ok=%v, want 400", code, resp.OK)
	}
}

func TestHandlerKVRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3})
	if resp, _ := doOp(t, ts, Request{Op: OpPut, Key: 7}); !resp.OK || !resp.Changed {
		t.Fatalf("put: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpPut, Key: 7}); resp.Changed {
		t.Fatalf("duplicate put reported changed: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpGet, Key: 7}); !resp.Found {
		t.Fatalf("get after put: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpDel, Key: 7}); !resp.Changed {
		t.Fatalf("del: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpGet, Key: 7}); resp.Found {
		t.Fatalf("get after del: %+v", resp)
	}
}

func TestHandlerCrossStructureOps(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3})

	// move: hot -> cold, observable on the cold set of the same shard.
	doOp(t, ts, Request{Op: OpPut, Key: 11})
	if resp, _ := doOp(t, ts, Request{Op: OpMove, Key: 11}); resp.Moved != 1 {
		t.Fatalf("move: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpGet, Struct: DefaultSpill, Key: 11}); !resp.Found {
		t.Fatalf("key 11 not on cold after move")
	}

	// moveall: multi-key put then one batched publication per shard.
	keys := []int64{20, 21, 22, 23, 24}
	if resp, _ := doOp(t, ts, Request{Op: OpPut, Keys: keys}); resp.Moved != len(keys) {
		t.Fatalf("multi-key put: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpMoveAll, Keys: keys}); resp.Moved != len(keys) {
		t.Fatalf("moveall: %+v", resp)
	}
	for _, k := range keys {
		if resp, _ := doOp(t, ts, Request{Op: OpGet, Struct: DefaultSpill, Key: k}); !resp.Found {
			t.Fatalf("key %d not on cold after moveall", k)
		}
	}

	// Queue ops pinned to one shard so the rotation cannot split the pair.
	pin := 0
	doOp(t, ts, Request{Op: OpEnqueue, Value: 42, Shard: &pin})
	doOp(t, ts, Request{Op: OpEnqueue, Value: 43, Shard: &pin})
	if resp, _ := doOp(t, ts, Request{Op: OpTransfer, N: 2, Shard: &pin}); resp.Moved != 2 {
		t.Fatalf("transfer: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpDequeue, Struct: "egress", Shard: &pin}); !resp.Found || resp.Value != 42 {
		t.Fatalf("dequeue after transfer: %+v", resp)
	}

	// PQ ops: push two, popmin returns the smaller.
	doOp(t, ts, Request{Op: OpPush, Value: 9, Shard: &pin})
	doOp(t, ts, Request{Op: OpPush, Value: 4, Shard: &pin})
	if resp, _ := doOp(t, ts, Request{Op: OpPopMin, Shard: &pin}); !resp.Found || resp.Value != 4 {
		t.Fatalf("popmin: %+v", resp)
	}

	// movetopq then movemin round a key through the scheduler.
	putResp, _ := doOp(t, ts, Request{Op: OpPut, Key: 31})
	sh := putResp.Shard
	if resp, _ := doOp(t, ts, Request{Op: OpMoveToPQ, Key: 31, Shard: &sh}); resp.Moved != 1 {
		t.Fatalf("movetopq: %+v", resp)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpMoveMin, Shard: &sh}); resp.Moved != 1 || resp.Value < 0 {
		t.Fatalf("movemin: %+v", resp)
	}
}

func TestHealthzAndStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	doOp(t, ts, Request{Op: OpPut, Key: 1})
	hr, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatalf("statz read: %v", err)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	if len(st.Shards) != 2 || st.Publications == 0 {
		t.Fatalf("statz: %+v", st)
	}
	// The payload's shape, member for member: what the frozen benchmark
	// reads, and no state of a control loop. Three per-shard counters
	// are the benchmark's inert zeros (so is the "tune" object).
	var raw struct {
		Shards []map[string]any
	}
	var top map[string]any
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	members := func(m map[string]any) string {
		var names []string
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	if got, want := members(top), "shards structures total_open_txns total_publications"; got != want {
		t.Errorf("statz members:\n got  %s\n want %s", got, want)
	}
	if got, want := members(raw.Shards[0]), "batched_ops batches fallback_commits fast_commits open_retries "+
		"open_txns open_user_aborts publications shard sheds tune"; got != want {
		t.Errorf("statz shard members:\n got  %s\n want %s", got, want)
	}
	for _, sh := range raw.Shards {
		for _, zero := range []string{"sheds", "batches", "batched_ops"} {
			if sh[zero] != 0.0 {
				t.Errorf("shard %v: %s = %v, want the constant 0", sh["shard"], zero, sh[zero])
			}
		}
	}
}

// TestNewStartsNoGoroutine: a Server is its shards and a router. Every
// request commits on the goroutine net/http gave it, so New starts nothing
// that Close (a no-op the frozen benchmark calls) would have to stop.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	srv := New(Config{})
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("New started %d goroutines, want 0", got-before)
	}
	srv.Close()
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after Close, %d before New", got, before)
	}
}

// TestBatchFieldIsADirectWrite: the wire's retired "batch" member is
// ignored. The write it decorates is one publication of its own and its
// reply is byte for byte the reply to the same request without it.
func TestBatchFieldIsADirectWrite(t *testing.T) {
	post := func(srv *Server, body string) (int, string) {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/op", strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	with, without := New(Config{Shards: 2}), New(Config{Shards: 2})
	before := with.Stats().Publications
	code, got := post(with, `{"op":"put","key":8,"batch":true}`)
	if code != http.StatusOK || !strings.Contains(got, `"changed":true`) {
		t.Fatalf(`put with "batch": got %d %s, want 200 and changed`, code, got)
	}
	if pubs := with.Stats().Publications - before; pubs != 1 {
		t.Errorf(`put with "batch" took %d publications, want 1`, pubs)
	}
	if _, want := post(without, `{"op":"put","key":8}`); got != want {
		t.Errorf("replies differ:\n with    %s without %s", got, want)
	}
	if _, got := post(with, `{"op":"get","key":8}`); !strings.Contains(got, `"found":true`) {
		t.Errorf("key 8 not visible after the reply: %s", got)
	}
}

// TestSentinelKeyIs400: the two keys the skiplist keeps its sentinels under
// are refused on every route that names a key — a del of the tail's key used
// to unlink the tail and leave the shard's cold set panicking on every later
// walk — and the set still serves afterwards.
func TestSentinelKeyIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		for _, req := range []Request{
			{Op: OpGet, Struct: DefaultSpill, Key: k},
			{Op: OpPut, Struct: DefaultSpill, Key: k},
			{Op: OpDel, Struct: DefaultSpill, Key: k},
			{Op: OpDel, Struct: DefaultSpill, Keys: []int64{1, k}},
			{Op: OpMove, Key: k},
			{Op: OpMoveAll, Keys: []int64{k}},
		} {
			resp, code := doOp(t, ts, req)
			if code != http.StatusBadRequest || resp.OK || !strings.Contains(resp.Err, "key") {
				t.Errorf("%s %d: got %d ok=%v err=%q, want 400 naming the key", req.Op, k, code, resp.OK, resp.Err)
			}
		}
		tresp, code := doTxn(t, ts, TxnRequest{Ops: []TxnOp{{Op: OpPut, Key: 1}, {Op: OpDel, Struct: DefaultSpill, Key: k}}})
		if code != http.StatusBadRequest || tresp.OK || !strings.Contains(tresp.Err, "op 1: key") {
			t.Errorf("txn del %d: got %d ok=%v err=%q, want 400 naming op 1's key", k, code, tresp.OK, tresp.Err)
		}
	}
	if resp, code := doOp(t, ts, Request{Op: OpPut, Struct: DefaultSpill, Key: 5}); code != http.StatusOK || !resp.Changed {
		t.Fatalf("put on cold after the refusals: got %d changed=%v", code, resp.Changed)
	}
	if resp, _ := doOp(t, ts, Request{Op: OpGet, Struct: DefaultSpill, Key: 5}); !resp.Found {
		t.Fatal("cold lost key 5")
	}
}

// TestPriorityOutOfRangeIs400: a priority the mound would panic on — negative,
// or past mound.MaxValue — is refused at the boundary on every route that can
// feed a priority queue, on the transactional fast path and on the forced
// fallback alike: 400 with one line naming the field, nothing pushed, and the
// set a movetopq would have taken the key from still holding it.
func TestPriorityOutOfRangeIs400(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Shards: 2}},
		{"forced fallback", Config{Shards: 2, ReadCap: -1, WriteCap: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, c.cfg)
			pin := 0
			for _, v := range []int64{-1, math.MinInt64, math.MaxInt64} {
				resp, code := doOp(t, ts, Request{Op: OpPush, Shard: &pin, Value: v})
				if code != http.StatusBadRequest || resp.OK || !strings.Contains(resp.Err, "value") {
					t.Errorf("push %d: got %d ok=%v err=%q, want 400 naming the value", v, code, resp.OK, resp.Err)
				}
				tresp, code := doTxn(t, ts, TxnRequest{Shard: &pin, Ops: []TxnOp{
					{Op: OpPut, Key: 77},
					{Op: OpPush, Value: v},
				}})
				if code != http.StatusBadRequest || tresp.OK || !strings.Contains(tresp.Err, "op 1: value") {
					t.Errorf("txn push %d: got %d ok=%v err=%q, want 400 naming op 1's value", v, code, tresp.OK, tresp.Err)
				}
			}
			if resp, _ := doOp(t, ts, Request{Op: OpGet, Shard: &pin, Key: 77}); resp.Found {
				t.Error("a refused transaction published its put")
			}

			if resp, code := doOp(t, ts, Request{Op: OpPut, Shard: &pin, Key: -5}); code != http.StatusOK || !resp.Changed {
				t.Fatalf("put -5: got %d changed=%v", code, resp.Changed)
			}
			resp, code := doOp(t, ts, Request{Op: OpMoveToPQ, Shard: &pin, Key: -5})
			if code != http.StatusBadRequest || resp.OK || !strings.Contains(resp.Err, "key") {
				t.Errorf("movetopq -5: got %d ok=%v err=%q, want 400 naming the key", code, resp.OK, resp.Err)
			}
			if resp, _ := doOp(t, ts, Request{Op: OpGet, Shard: &pin, Key: -5}); !resp.Found {
				t.Error("the refused movetopq took the key out of its set")
			}
			if resp, _ := doOp(t, ts, Request{Op: OpPopMin, Shard: &pin}); resp.Found {
				t.Errorf("the priority queue holds %d after three refused routes", resp.Value)
			}

			// The edges of the range are served.
			for _, v := range []int64{0, mound.MaxValue} {
				if resp, code := doOp(t, ts, Request{Op: OpPush, Shard: &pin, Value: v}); code != http.StatusOK || !resp.OK {
					t.Errorf("push %d: got %d ok=%v, want 200", v, code, resp.OK)
				}
			}
		})
	}
}
