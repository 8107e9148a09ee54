package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/semtx"
	"repro/internal/txn"
)

// assertErr aborts a /v1/txn body whose Assert clause disagreed with the
// observed outcome. It flows out of semtx.Manager.Run as the body's error
// — the subsystem guarantees an erroring body publishes nothing — and maps
// to 409: the client's precondition raced with another writer.
type assertErr struct {
	op   int
	want bool
	got  bool
}

func (e assertErr) Error() string {
	return fmt.Sprintf("op %d: asserted %v, observed %v", e.op, e.want, e.got)
}

// txnDefault resolves the default structure name of a txn op kind.
func txnDefault(op string) (string, bool) {
	switch op {
	case OpGet, OpPut, OpDel:
		return DefaultSet, true
	case OpEnqueue, OpDequeue:
		return DefaultQueue, true
	case OpPush, OpPopMin:
		return DefaultPQ, true
	default:
		return "", false
	}
}

// handleTxn decodes one declarative transaction, routes it to a single
// shard, and runs it as one open transaction: every op executes against
// the shard's structures with semantic footprint recording, and commit
// revalidates the footprint and publishes all buffered writes in one
// composed publication. Status mapping: 200 committed, 400 malformed body
// or restriction violation, 404 unknown structure, 409 assert mismatch.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	reply := func(status int, resp TxnResponse) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	}
	fail := func(status int, format string, args ...any) {
		reply(status, TxnResponse{OK: false, Shard: -1, Err: fmt.Sprintf(format, args...)})
	}

	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req TxnRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		fail(http.StatusBadRequest, "malformed request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		fail(http.StatusBadRequest, "empty transaction")
		return
	}
	if len(req.Ops) > s.cfg.MaxBatch {
		fail(http.StatusBadRequest, "transaction of %d ops exceeds max %d", len(req.Ops), s.cfg.MaxBatch)
		return
	}
	if req.Shard != nil && (*req.Shard < 0 || *req.Shard >= len(s.shards)) {
		fail(http.StatusBadRequest, "shard %d out of range [0,%d)", *req.Shard, len(s.shards))
		return
	}

	// Route the whole body to ONE shard: the subsystem's atomicity, like the
	// composed ops', is a single-domain property. Pin wins; else the first
	// keyed op's key decides; an all-keyless body rotates.
	var sh *shard
	switch {
	case req.Shard != nil:
		sh = s.shards[*req.Shard]
	default:
		for _, op := range req.Ops {
			if op.Op == OpGet || op.Op == OpPut || op.Op == OpDel {
				sh = s.shardFor(op.Key)
				break
			}
		}
		if sh == nil {
			sh = s.nextShard()
		}
	}

	// Pre-resolve every op's structure so name errors are clean HTTP errors,
	// not panics out of the transaction body.
	for i, op := range req.Ops {
		def, ok := txnDefault(op.Op)
		if !ok {
			fail(http.StatusBadRequest, "op %d: unknown op %q", i, op.Op)
			return
		}
		if def == DefaultSet && !validKey(op.Key) {
			fail(http.StatusBadRequest, "op %d: %s", i, keyRangeErr(op.Key))
			return
		}
		if op.Op == OpPush && !validPriority(op.Value) {
			fail(http.StatusBadRequest, "op %d: %s", i, priorityRangeErr("value", op.Value))
			return
		}
		var known bool
		switch def {
		case DefaultSet:
			known = sh.set(op.Struct, def) != nil
		case DefaultQueue:
			known = sh.queue(op.Struct, def) != nil
		default:
			known = sh.pq(op.Struct, def) != nil
		}
		if !known {
			resp, status := unknownStructure(sh, op.Struct)
			reply(status, TxnResponse{OK: false, Shard: resp.Shard, Err: resp.Err})
			return
		}
	}

	results := make([]TxnOpResult, 0, len(req.Ops))
	_, err := sh.sem.Run(func(tx *semtx.Tx[*txn.Ctx, int64]) error {
		results = results[:0] // the body may re-run after a semantic retry
		for i, op := range req.Ops {
			var res TxnOpResult
			var outcome bool
			name := op.Struct
			if name == "" {
				name, _ = txnDefault(op.Op)
			}
			switch op.Op {
			case OpGet:
				res.Found = tx.Get(name, op.Key)
				outcome = res.Found
			case OpPut:
				res.Changed = tx.Put(name, op.Key)
				outcome = res.Changed
			case OpDel:
				res.Changed = tx.Delete(name, op.Key)
				outcome = res.Changed
			case OpEnqueue:
				tx.Enqueue(name, op.Value)
			case OpDequeue:
				res.Value, res.Found = tx.Dequeue(name)
				outcome = res.Found
			case OpPush:
				tx.Push(name, op.Value)
			case OpPopMin:
				res.Value, res.Found = tx.PopMin(name)
				outcome = res.Found
			}
			if op.Assert != nil && *op.Assert != outcome {
				return assertErr{op: i, want: *op.Assert, got: outcome}
			}
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		var ae assertErr
		if errors.As(err, &ae) {
			idx := ae.op
			reply(http.StatusConflict, TxnResponse{
				OK: false, Shard: sh.id, FailedOp: &idx, Err: err.Error()})
			return
		}
		var v *semtx.Violation
		if errors.As(err, &v) {
			fail(http.StatusBadRequest, "restriction violation: %v", err)
			return
		}
		fail(http.StatusInternalServerError, "transaction failed: %v", err)
		return
	}
	reply(http.StatusOK, TxnResponse{OK: true, Shard: sh.id, Results: results})
}
