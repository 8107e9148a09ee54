package server

// The wire codec of the PTO service: one JSON envelope per operation,
// posted to /v1/op. A single envelope (rather than one route per verb)
// keeps the benchmark's client, the conservation tests, and any future
// client on one decode path, and makes the op mix a data problem instead of
// a routing problem. Everything is stdlib encoding/json; values and keys are
// int64 to match the composition layer's key type.

// Op names accepted on the wire.
const (
	OpGet      = "get"
	OpPut      = "put"
	OpDel      = "del"
	OpEnqueue  = "enqueue"
	OpDequeue  = "dequeue"
	OpPush     = "push"
	OpPopMin   = "popmin"
	OpMove     = "move"
	OpMoveAll  = "moveall"
	OpTransfer = "transfer"
	OpMoveMin  = "movemin"
	OpMoveToPQ = "movetopq"
)

// Default structure names resolved when a request leaves the field empty.
// Every shard registers the same five structures under these names (see
// newShard), so requests address "the hot set on whatever shard owns this
// key" without knowing the shard layout.
const (
	DefaultSet   = "hot"  // put/get/del target, move source
	DefaultSpill = "cold" // move destination
	DefaultQueue = "ingress"
	DefaultPQ    = "sched"
)

// Request is the JSON envelope of POST /v1/op.
//
// Keyed ops (get/put/del/move/movetopq) route by Key to its owning shard;
// keyless ops (enqueue/dequeue/push/popmin/transfer/movemin) rotate across
// shards. Shard pins either kind to one shard: a pinned keyed op reads or
// writes the key on that shard's structures, owner or not. Key-list ops
// (moveall, and put/del with Keys set) always group Keys by owning shard,
// pin or no pin, and run one composed publication per shard — the
// request-path analogue of MoveAll's amortization. Fields the envelope does
// not name are ignored, the retired "batch" among them: such a write runs as
// any other.
type Request struct {
	Op     string  `json:"op"`
	Struct string  `json:"struct,omitempty"` // target for single-structure ops
	Src    string  `json:"src,omitempty"`    // source for cross-structure ops
	Dst    string  `json:"dst,omitempty"`    // destination for cross-structure ops
	Key    int64   `json:"key,omitempty"`
	Keys   []int64 `json:"keys,omitempty"` // moveall / multi-key put
	Value  int64   `json:"value,omitempty"`
	N      int     `json:"n,omitempty"`     // transfer count
	Shard  *int    `json:"shard,omitempty"` // pin the op to a shard (not a key-list op)
}

// Response is the JSON reply of /v1/op. Err is set (with a non-200 status)
// when the request was rejected; the other fields are op-specific:
// Found/Value for reads and pops, Changed for put/del (did membership
// change), Moved for move/moveall/transfer/movemin/movetopq.
type Response struct {
	OK      bool   `json:"ok"`
	Found   bool   `json:"found,omitempty"`
	Changed bool   `json:"changed,omitempty"`
	Value   int64  `json:"value,omitempty"`
	Moved   int    `json:"moved,omitempty"`
	Shard   int    `json:"shard"`
	Batched bool   `json:"batched,omitempty"`
	Err     string `json:"error,omitempty"`
}

// TxnOp is one operation inside a POST /v1/txn body: the single-structure
// subset of the op envelope (get/put/del/enqueue/dequeue/push/popmin —
// cross-structure moves are already atomic via /v1/op). Assert, when set,
// is the expected boolean outcome (found for get/dequeue/popmin, changed
// for put/del): a mismatch aborts the whole transaction with 409 and
// nothing publishes. That makes compare-and-act protocols ("claim this key
// only if still absent, then enqueue it") one round trip.
type TxnOp struct {
	Op     string `json:"op"`
	Struct string `json:"struct,omitempty"`
	Key    int64  `json:"key,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Assert *bool  `json:"assert,omitempty"`
}

// TxnRequest is the JSON envelope of POST /v1/txn: a declarative multi-op
// body executed as ONE open transaction (semantic validation + a single
// composed publication) on a single shard. Routing: Shard pins; otherwise
// the first keyed op's key picks the shard; an all-keyless body rotates.
type TxnRequest struct {
	Ops   []TxnOp `json:"ops"`
	Shard *int    `json:"shard,omitempty"`
}

// TxnOpResult is one op's outcome in the committed transaction.
type TxnOpResult struct {
	Found   bool  `json:"found,omitempty"`
	Changed bool  `json:"changed,omitempty"`
	Value   int64 `json:"value,omitempty"`
}

// TxnResponse is the JSON reply of /v1/txn. On commit (200) Results holds
// one entry per op in request order. An assert mismatch replies 409 with
// FailedOp set to the index of the op whose assertion failed; a restriction
// violation (e.g. a second structural dequeue on one queue) replies 400.
type TxnResponse struct {
	OK       bool          `json:"ok"`
	Shard    int           `json:"shard"`
	Results  []TxnOpResult `json:"results,omitempty"`
	FailedOp *int          `json:"failed_op,omitempty"`
	Err      string        `json:"error,omitempty"`
}
