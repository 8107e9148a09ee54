package sim

import "fmt"

// Model names accepted by Config.Model. The empty string selects ModelRTM.
const (
	// ModelRTM is the default RTM-like best-effort HTM: requester-wins
	// conflicts, an imprecise (hashed) read signature that can report false
	// conflicts, write set bounded by the L1 (evicting a write-set line is a
	// capacity abort) and by WriteSetLines, read set bounded by ReadSetLines.
	ModelRTM = "rtm"
	// ModelBoundedSet is the FORTH limited read/write-set design: two tiny
	// exact line sets with separate budgets (BoundedReadLines /
	// BoundedWriteLines), no L1-occupancy coupling and no imprecise filter —
	// overflow of either budget is a capacity abort, and conflict detection
	// is exact (no false read-signature kills).
	ModelBoundedSet = "bounded"
)

// HTMModel is the pluggable transactional-hardware model of the machine: it
// decides conflict granularity, capacity accounting, and which L1 evictions
// doom a transaction. The machine owns everything else (coherence costs,
// write buffering, requester-wins arbitration, abort status delivery).
type HTMModel interface {
	// Name reports the Config.Model spelling of this model.
	Name() string
	// NewTracker returns a fresh per-thread footprint tracker.
	NewTracker() TxTracker
}

// TxTracker tracks one hardware thread's transactional footprint under an
// HTMModel. A tracker is consulted only between Begin and End; Read/Write
// report false when adding the line overflows the model's capacity, which
// the machine turns into an AbortCapacity.
type TxTracker interface {
	// Begin starts tracking a new transaction, with an empty footprint.
	Begin()
	// Read adds line l to the read footprint; false means capacity overflow.
	Read(l uint64) bool
	// Write adds line l to the write footprint; false means capacity
	// overflow.
	Write(l uint64) bool
	// HasWrite reports whether l is in the write footprint (exact).
	HasWrite(l uint64) bool
	// MayHaveRead reports whether a foreign write to l conflicts with the
	// read footprint. Imprecise models may report false positives.
	MayHaveRead(l uint64) bool
	// EvictionAborts reports whether evicting line l from the thread's L1
	// dooms the transaction (true on L1-coupled designs when l is in the
	// write set; always false for designs with dedicated set storage).
	EvictionAborts(l uint64) bool
	// End empties the footprint (commit or abort); its storage serves the
	// thread's next transaction.
	End()
}

// modelFor resolves cfg.Model. Config.Validate has already vetted the name
// and bounds, so unknown names only arise from code bypassing validation.
func modelFor(cfg Config) HTMModel {
	switch cfg.Model {
	case "", ModelRTM:
		return rtmModel{read: cfg.ReadSetLines, write: cfg.WriteSetLines}
	case ModelBoundedSet:
		return boundedModel{read: cfg.BoundedReadLines, write: cfg.BoundedWriteLines}
	}
	panic(fmt.Sprintf("sim: unknown HTM model %q", cfg.Model))
}

// rtmModel is the default Haswell-like model (package doc, DESIGN §9).
type rtmModel struct{ read, write int }

func (m rtmModel) Name() string { return ModelRTM }
func (m rtmModel) NewTracker() TxTracker {
	return &rtmTracker{readCap: m.read, writeCap: m.write}
}

// rtmTracker keeps the exact read line set (for capacity accounting), the
// imprecise hashed read signature (for conflict detection), and the exact
// write line set.
type rtmTracker struct {
	readCap, writeCap int
	readSet           map[uint64]struct{}
	// readFilter is the imprecise (hashed) read-set signature: as on
	// Haswell, reads are tracked in a filter that can report false
	// conflicts, so the false-abort probability grows with read-set size.
	readFilter map[uint64]struct{}
	writeSet   map[uint64]struct{}
}

// readFilterBuckets sizes the imprecise read-set signature.
const readFilterBuckets = 1021

func filterBucket(l uint64) uint64 { return (l * 0x9E3779B97F4A7C15) % readFilterBuckets }

func (t *rtmTracker) Begin() {
	if t.readSet == nil {
		t.readSet = make(map[uint64]struct{}, 32)
		t.readFilter = make(map[uint64]struct{}, 32)
		t.writeSet = make(map[uint64]struct{}, 16)
	}
}

func (t *rtmTracker) Read(l uint64) bool {
	t.readSet[l] = struct{}{}
	t.readFilter[filterBucket(l)] = struct{}{}
	return len(t.readSet) <= t.readCap
}

func (t *rtmTracker) Write(l uint64) bool {
	t.writeSet[l] = struct{}{}
	return len(t.writeSet) <= t.writeCap
}

func (t *rtmTracker) HasWrite(l uint64) bool {
	_, ok := t.writeSet[l]
	return ok
}

func (t *rtmTracker) MayHaveRead(l uint64) bool {
	_, ok := t.readFilter[filterBucket(l)]
	return ok
}

func (t *rtmTracker) EvictionAborts(l uint64) bool {
	_, ok := t.writeSet[l]
	return ok
}

func (t *rtmTracker) End() {
	clear(t.readSet)
	clear(t.readFilter)
	clear(t.writeSet)
}

// boundedModel is the FORTH TR design: dedicated per-thread set storage for
// a handful of lines, decoupled from the cache.
type boundedModel struct{ read, write int }

func (m boundedModel) Name() string { return ModelBoundedSet }
func (m boundedModel) NewTracker() TxTracker {
	return &boundedTracker{readCap: m.read, writeCap: m.write}
}

// boundedTracker tracks both footprints exactly. Because the set storage is
// separate hardware, L1 evictions never doom a transaction and conflict
// detection has no false positives — the price is the tiny budgets.
type boundedTracker struct {
	readCap, writeCap int
	readSet           map[uint64]struct{}
	writeSet          map[uint64]struct{}
}

func (t *boundedTracker) Begin() {
	if t.readSet == nil {
		t.readSet = make(map[uint64]struct{}, t.readCap)
		t.writeSet = make(map[uint64]struct{}, t.writeCap)
	}
}

func (t *boundedTracker) Read(l uint64) bool {
	t.readSet[l] = struct{}{}
	return len(t.readSet) <= t.readCap
}

func (t *boundedTracker) Write(l uint64) bool {
	t.writeSet[l] = struct{}{}
	return len(t.writeSet) <= t.writeCap
}

func (t *boundedTracker) HasWrite(l uint64) bool {
	_, ok := t.writeSet[l]
	return ok
}

func (t *boundedTracker) MayHaveRead(l uint64) bool {
	_, ok := t.readSet[l]
	return ok
}

func (t *boundedTracker) EvictionAborts(uint64) bool { return false }

func (t *boundedTracker) End() {
	clear(t.readSet)
	clear(t.writeSet)
}
