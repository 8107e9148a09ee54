package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/mound"
	"repro/internal/txn"
)

// maxBodyBytes bounds one request body; a full MaxBatch key list is ~1.5KB,
// so 1MB is generous without letting a client balloon the decoder.
const maxBodyBytes = 1 << 20

// Handler returns the service mux: POST /v1/op (the op envelope),
// POST /v1/txn (a declarative multi-op open transaction), GET /healthz,
// GET /statz. The telemetry export (/metrics) is mounted by the caller
// from the server's Registry — the exporter already exists in
// internal/telemetry and is not duplicated here.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/op", s.handleOp)
	mux.HandleFunc("/v1/txn", s.handleTxn)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"shards":%d}`+"\n", len(s.shards))
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Stats())
	})
	return mux
}

// httpError writes a JSON error response with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Response{OK: false, Shard: -1, Err: fmt.Sprintf(format, args...)})
}

// handleOp decodes one envelope, routes it to its shard(s), executes, and
// replies.
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request: %v", err)
		return
	}
	if len(req.Keys) > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d keys exceeds max %d", len(req.Keys), s.cfg.MaxBatch)
		return
	}
	if req.N < 0 || req.N > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest, "n of %d outside [0, %d]", req.N, s.cfg.MaxBatch)
		return
	}
	if req.Shard != nil && (*req.Shard < 0 || *req.Shard >= len(s.shards)) {
		httpError(w, http.StatusBadRequest, "shard %d out of range [0,%d)", *req.Shard, len(s.shards))
		return
	}
	if !validKey(req.Key) {
		httpError(w, http.StatusBadRequest, "%s", keyRangeErr(req.Key))
		return
	}
	for _, k := range req.Keys {
		if !validKey(k) {
			httpError(w, http.StatusBadRequest, "%s", keyRangeErr(k))
			return
		}
	}

	resp, status := s.execute(&req)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// execute runs one validated envelope and returns the response + status.
func (s *Server) execute(req *Request) (Response, int) {
	switch req.Op {
	case OpGet:
		sh := s.keyShard(req)
		set := sh.set(req.Struct, DefaultSet)
		if set == nil {
			return unknownStructure(sh, req.Struct)
		}
		found := sh.get(set, req.Key)
		return Response{OK: true, Found: found, Shard: sh.id}, http.StatusOK

	case OpPut, OpDel:
		return s.executeWrite(req)

	case OpEnqueue:
		sh := s.freeShard(req)
		q := sh.queue(req.Struct, DefaultQueue)
		if q == nil {
			return unknownStructure(sh, req.Struct)
		}
		sh.enqueue(q, req.Value)
		return Response{OK: true, Shard: sh.id}, http.StatusOK

	case OpDequeue:
		sh := s.freeShard(req)
		q := sh.queue(req.Struct, DefaultQueue)
		if q == nil {
			return unknownStructure(sh, req.Struct)
		}
		v, ok := sh.dequeue(q)
		return Response{OK: true, Found: ok, Value: v, Shard: sh.id}, http.StatusOK

	case OpPush:
		if !validPriority(req.Value) {
			return priorityRange("value", req.Value)
		}
		sh := s.freeShard(req)
		pq := sh.pq(req.Struct, DefaultPQ)
		if pq == nil {
			return unknownStructure(sh, req.Struct)
		}
		sh.push(pq, req.Value)
		return Response{OK: true, Shard: sh.id}, http.StatusOK

	case OpPopMin:
		sh := s.freeShard(req)
		pq := sh.pq(req.Struct, DefaultPQ)
		if pq == nil {
			return unknownStructure(sh, req.Struct)
		}
		v, ok := sh.popMin(pq)
		return Response{OK: true, Found: ok, Value: v, Shard: sh.id}, http.StatusOK

	case OpMove:
		sh := s.keyShard(req)
		src, dst := sh.set(req.Src, DefaultSet), sh.set(req.Dst, DefaultSpill)
		if src == nil {
			return unknownStructure(sh, req.Src)
		}
		if dst == nil {
			return unknownStructure(sh, req.Dst)
		}
		moved := 0
		if txn.Move(sh.m, src, dst, req.Key) {
			moved = 1
		}
		return Response{OK: true, Moved: moved, Shard: sh.id}, http.StatusOK

	case OpMoveAll:
		return s.executeMoveAll(req)

	case OpTransfer:
		sh := s.freeShard(req)
		src, dst := sh.queue(req.Src, DefaultQueue), sh.queue(req.Dst, "egress")
		if src == nil {
			return unknownStructure(sh, req.Src)
		}
		if dst == nil {
			return unknownStructure(sh, req.Dst)
		}
		n := req.N
		if n == 0 {
			n = 1
		}
		moved := txn.Transfer(sh.m, src, dst, n)
		return Response{OK: true, Moved: moved, Shard: sh.id}, http.StatusOK

	case OpMoveMin:
		sh := s.freeShard(req)
		src, dst := sh.pq(req.Src, DefaultPQ), sh.set(req.Dst, DefaultSpill)
		if src == nil {
			return unknownStructure(sh, req.Src)
		}
		if dst == nil {
			return unknownStructure(sh, req.Dst)
		}
		v, moved := txn.MoveMin(sh.m, src, dst)
		resp := Response{OK: true, Value: v, Found: moved, Shard: sh.id}
		if moved {
			resp.Moved = 1
		}
		return resp, http.StatusOK

	case OpMoveToPQ:
		if !validPriority(req.Key) {
			return priorityRange("key", req.Key)
		}
		sh := s.keyShard(req)
		src, dst := sh.set(req.Src, DefaultSet), sh.pq(req.Dst, DefaultPQ)
		if src == nil {
			return unknownStructure(sh, req.Src)
		}
		if dst == nil {
			return unknownStructure(sh, req.Dst)
		}
		moved := 0
		if txn.MoveToPQ(sh.m, src, dst, req.Key) {
			moved = 1
		}
		return Response{OK: true, Moved: moved, Shard: sh.id}, http.StatusOK

	default:
		return Response{OK: false, Shard: -1, Err: fmt.Sprintf("unknown op %q", req.Op)},
			http.StatusBadRequest
	}
}

// executeWrite handles put/del: single-key as one publication, multi-key as
// one publication per owning shard.
func (s *Server) executeWrite(req *Request) (Response, int) {
	insert := req.Op == OpPut
	if len(req.Keys) > 0 {
		// Multi-key: group by owning shard, one composed publication each —
		// the client-side face of the batched-amortization claim.
		groups := s.groupByShard(req.Keys)
		for sh := range groups {
			if sh.set(req.Struct, DefaultSet) == nil {
				return unknownStructure(sh, req.Struct)
			}
		}
		changed := 0
		for sh, keys := range groups {
			set := sh.set(req.Struct, DefaultSet)
			if insert {
				changed += sh.putAll(set, keys)
			} else {
				changed += delAll(sh, set, keys)
			}
		}
		return Response{OK: true, Moved: changed, Changed: changed > 0, Shard: -1, Batched: true},
			http.StatusOK
	}

	sh := s.keyShard(req)
	set := sh.set(req.Struct, DefaultSet)
	if set == nil {
		return unknownStructure(sh, req.Struct)
	}
	var changed bool
	if insert {
		changed = sh.put(set, req.Key)
	} else {
		changed = sh.del(set, req.Key)
	}
	return Response{OK: true, Changed: changed, Shard: sh.id}, http.StatusOK
}

// executeMoveAll groups the key list by owning shard and runs one batched
// MoveAll publication per shard.
func (s *Server) executeMoveAll(req *Request) (Response, int) {
	if len(req.Keys) == 0 {
		return Response{OK: true, Moved: 0, Shard: -1}, http.StatusOK
	}
	groups := s.groupByShard(req.Keys)
	for sh := range groups {
		if sh.set(req.Src, DefaultSet) == nil {
			return unknownStructure(sh, req.Src)
		}
		if sh.set(req.Dst, DefaultSpill) == nil {
			return unknownStructure(sh, req.Dst)
		}
	}
	moved := 0
	for sh, keys := range groups {
		moved += txn.MoveAll(sh.m, sh.set(req.Src, DefaultSet), sh.set(req.Dst, DefaultSpill), keys...)
	}
	return Response{OK: true, Moved: moved, Shard: -1, Batched: true}, http.StatusOK
}

// delAll removes every key in one composed publication, returning how many
// were present.
func delAll(sh *shard, set txn.Set, keys []int64) int {
	var n int
	sh.m.Atomic(func(c *txn.Ctx) {
		n = 0
		for _, k := range keys {
			if set.TxRemove(c, k) {
				n++
			}
		}
	})
	return n
}

// keyShard resolves the shard of a keyed op (explicit pin wins).
func (s *Server) keyShard(req *Request) *shard {
	if req.Shard != nil {
		return s.shards[*req.Shard]
	}
	return s.shardFor(req.Key)
}

// freeShard resolves the shard of a keyless op: pinned, else rotating.
func (s *Server) freeShard(req *Request) *shard {
	if req.Shard != nil {
		return s.shards[*req.Shard]
	}
	return s.nextShard()
}

// groupByShard partitions keys by owning shard, preserving order within a
// shard.
func (s *Server) groupByShard(keys []int64) map[*shard][]int64 {
	groups := make(map[*shard][]int64, len(s.shards))
	for _, k := range keys {
		sh := s.shardFor(k)
		groups[sh] = append(groups[sh], k)
	}
	return groups
}

// validKey reports whether k may be a set's key. The skiplist keeps its head
// and tail sentinels under the two extreme values: it answers "present" for
// the tail's key and a del of it unlinks the tail, after which every walk of
// that set dereferences nil. So neither crosses the boundary, on any route.
func validKey(k int64) bool { return k != math.MinInt64 && k != math.MaxInt64 }

// keyRangeErr is the one-line error for such a key.
func keyRangeErr(k int64) string {
	return fmt.Sprintf("key %d out of range [%d, %d] for a set", k, int64(math.MinInt64+1), int64(math.MaxInt64-1))
}

// validPriority reports whether v may enter a priority queue. The mound
// panics on anything else, and nothing reachable from the wire may panic, so
// every route that feeds one — push, a /v1/txn push op, the key a movetopq
// moves — checks here first.
func validPriority(v int64) bool { return v >= 0 && v <= mound.MaxValue }

// priorityRangeErr is the one-line error for a priority outside the range.
func priorityRangeErr(field string, v int64) string {
	return fmt.Sprintf("%s %d out of range [0, %d] for a priority queue", field, v, int64(mound.MaxValue))
}

// priorityRange is the 400 for it.
func priorityRange(field string, v int64) (Response, int) {
	return Response{OK: false, Shard: -1, Err: priorityRangeErr(field, v)}, http.StatusBadRequest
}

// unknownStructure is the 404 for a name the shard's registry doesn't hold.
func unknownStructure(sh *shard, name string) (Response, int) {
	return Response{OK: false, Shard: sh.id, Err: fmt.Sprintf("unknown structure %q", name)},
		http.StatusNotFound
}
