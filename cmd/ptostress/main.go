// Command ptostress hammers the real-concurrency data structures (the
// correctness layer) with randomized concurrent operations and verifies
// their semantics at quiescence: per-key insert/remove balance must match
// final membership for sets, and multiset conservation plus ordering must
// hold for the queues. It reports PTO speculation statistics alongside.
//
// Usage:
//
//	ptostress [-structure all|bst|skiplist|hashtable|list|msqueue|mound|compose]
//	          [-variant pto|lockfree] [-threads 8] [-ops 20000] [-keys 256]
//	          [-policy fixed|adaptive] [-readcap N] [-writecap N]
//	          [-compose] [-lincheck 4] [-sample 1s]
//	          [-metrics] [-json] [-metrics-addr :8321] [-hold 2s]
//
// -policy selects the speculation policy installed into every PTO structure:
// "fixed" is the historical behavior (a fixed attempt budget, no adaptation),
// "adaptive" enables backoff on conflicts, fail-fast on deterministic
// aborts, and the per-site adaptive disable. -readcap/-writecap retune every
// structure's transactional capacity before the run (useful to force
// capacity aborts and watch the adaptive policy react; negative values force
// every composed transaction down the MultiCAS fallback). -metrics prints a
// per-site telemetry table; -json emits one machine-readable result object
// on stdout (human progress moves to stderr). -metrics-addr serves the same
// telemetry over HTTP at /metrics (Prometheus text format) and /debug/vars
// (expvar) for the duration of the run plus -hold.
//
// -compose adds the composed-transaction workload (requires -variant pto):
// txn.Move and batched txn.MoveAll between set pairs of every composable
// structure kind (BST, hash table, skiplist, Harris list), txn.Transfer
// between queues, txn.MoveMin/txn.MoveToPQ between a mound and a skiplist
// set, and composed read-only snapshots asserting each key lives in exactly
// one set of its pair, with key-count/value conservation verified at
// quiescence. The structures are enumerated through the manager's Registry. -lincheck N runs N online linearizability spot-check windows
// per stressed structure, concurrent with the main churn: each window
// hammers one fresh reserved key from several goroutines, records the
// operations' real-time windows, and checks the small history against the
// sequential set specification (internal/linearize); under -compose the
// checked operations run through the transactional composition layer.
// -sample logs interval-rate telemetry deltas (per-site commit ratio and
// abort/fallback rates, composed-path rates) at the given period for the
// whole run including -hold, turning long runs into a rate time series.
//
// Exit status 0 means every check passed.
package main

import (
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bst"
	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/linearize"
	"repro/internal/list"
	"repro/internal/mound"
	"repro/internal/msqueue"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

var (
	structure   = flag.String("structure", "all", "which structure to stress")
	variant     = flag.String("variant", "pto", "pto or lockfree")
	threads     = flag.Int("threads", 8, "concurrent goroutines")
	ops         = flag.Int("ops", 20000, "operations per goroutine")
	keys        = flag.Int("keys", 256, "key range")
	seed        = flag.Int64("seed", 1, "base RNG seed")
	policyName  = flag.String("policy", "fixed", "speculation policy: fixed or adaptive")
	readCap     = flag.Int("readcap", 0, "transactional read capacity (0 = default)")
	writeCap    = flag.Int("writecap", 0, "transactional write capacity (0 = default)")
	metrics     = flag.Bool("metrics", false, "print the per-site speculation telemetry table")
	jsonOut     = flag.Bool("json", false, "emit a machine-readable JSON result on stdout")
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address during the run")
	hold        = flag.Duration("hold", 0, "keep the metrics endpoint up this long after the run")
	compose     = flag.Bool("compose", false, "add the composed-transaction workload (pto variant only)")
	linWindows  = flag.Int("lincheck", 4, "online linearizability spot-check windows per structure (0 = off)")
	sample      = flag.Duration("sample", 0, "log interval-rate telemetry deltas at this period (0 = off)")
)

// out is where human-readable progress goes: stdout normally, stderr under
// -json so stdout carries exactly one JSON object.
var out io.Writer = os.Stdout

// registry collects speculation telemetry for every stressed structure.
var registry = telemetry.NewRegistry()

type set interface {
	Insert(k int64) bool
	Remove(k int64) bool
	Contains(k int64) bool
}

func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

// applyCaps retunes a structure's transactional capacity per the flags.
// Safe on a nil domain (lock-free variants).
func applyCaps(d *htm.Domain) {
	if d != nil && (*readCap > 0 || *writeCap > 0) {
		d.SetCapacity(*readCap, *writeCap)
	}
}

// linClock is the global logical clock stamping linearizability-check
// operation windows. A strictly monotone shared counter is all the checker
// needs: the increment on each side of an operation brackets its
// linearization point in real time.
var linClock atomic.Uint64

// linSpotCheck runs the online linearizability spot-check: *linWindows small
// windows, each hammering one fresh reserved key (above the workload key
// range, so the key's history starts from the empty set and is complete)
// from several goroutines while the main churn runs. Every operation records
// its [Start, End] window from linClock; each window's history — at most
// 16 operations, far under the checker's limit — is then verified against
// the sequential set specification.
func linSpotCheck(name string, s set) bool {
	par := *threads
	if par > 4 {
		par = 4
	}
	if par < 2 {
		par = 2
	}
	const opsPer = 4
	base := int64(*keys) + 1<<20
	for w := 0; w < *linWindows; w++ {
		key := base + int64(w)
		hist := make([]linearize.Op, 0, par*opsPer)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rnd := uint64(*seed)*31 + uint64(w)*131 + uint64(g)*977 + 5
				for i := 0; i < opsPer; i++ {
					var kind linearize.Kind
					switch xorshift(&rnd) % 3 {
					case 0:
						kind = linearize.Insert
					case 1:
						kind = linearize.Remove
					default:
						kind = linearize.Contains
					}
					start := linClock.Add(1)
					var res bool
					switch kind {
					case linearize.Insert:
						res = s.Insert(key)
					case linearize.Remove:
						res = s.Remove(key)
					default:
						res = s.Contains(key)
					}
					end := linClock.Add(1)
					mu.Lock()
					hist = append(hist, linearize.Op{Start: start, End: end, Kind: kind, Key: key, Result: res})
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		s.Remove(key) // leave the structure as the window found it
		if !linearize.Check(hist) {
			fmt.Fprintf(out, "  FAIL %s: lincheck window %d not linearizable: %+v\n", name, w, hist)
			return false
		}
	}
	return true
}

// stressSet churns a set and verifies per-key balance against membership,
// with the linearizability spot-check running concurrently.
func stressSet(name string, s set) bool {
	ins := make([]atomic.Int64, *keys)
	rem := make([]atomic.Int64, *keys)
	linOK := true
	linDone := make(chan struct{})
	if *linWindows > 0 {
		go func() { defer close(linDone); linOK = linSpotCheck(name, s) }()
	} else {
		close(linDone)
	}
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(*seed)*2654435761 + uint64(g)*977 + 1
			for i := 0; i < *ops; i++ {
				x := xorshift(&rnd)
				k := int64(x % uint64(*keys))
				switch x >> 32 % 3 {
				case 0:
					if s.Insert(k) {
						ins[k].Add(1)
					}
				case 1:
					if s.Remove(k) {
						rem[k].Add(1)
					}
				default:
					s.Contains(k)
				}
			}
		}(g)
	}
	wg.Wait()
	<-linDone
	bad := 0
	if !linOK {
		bad++
	}
	for k := 0; k < *keys; k++ {
		diff := ins[k].Load() - rem[k].Load()
		if diff != 0 && diff != 1 {
			fmt.Fprintf(out, "  FAIL %s: key %d balance %d\n", name, k, diff)
			bad++
			continue
		}
		if (diff == 1) != s.Contains(int64(k)) {
			fmt.Fprintf(out, "  FAIL %s: key %d membership disagrees with balance %d\n", name, k, diff)
			bad++
		}
	}
	fmt.Fprintf(out, "  %-22s %d ops x %d threads: %s\n", name,
		*ops, *threads, verdict(bad == 0))
	return bad == 0
}

// stressQueue checks conservation: everything enqueued is dequeued once.
func stressQueue(name string, enq func(int64), deq func() (int64, bool)) bool {
	total := *threads * *ops
	seen := make([]atomic.Int32, total)
	var count atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < *ops; i++ {
				enq(int64(g**ops + i))
				if i%2 == 1 {
					if v, ok := deq(); ok {
						seen[v].Add(1)
						count.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for {
		v, ok := deq()
		if !ok {
			break
		}
		seen[v].Add(1)
		count.Add(1)
	}
	bad := 0
	if count.Load() != int64(total) {
		fmt.Fprintf(out, "  FAIL %s: %d values out, want %d\n", name, count.Load(), total)
		bad++
	}
	for v := range seen {
		if c := seen[v].Load(); c != 1 {
			fmt.Fprintf(out, "  FAIL %s: value %d seen %d times\n", name, v, c)
			bad++
		}
	}
	fmt.Fprintf(out, "  %-22s %d ops x %d threads: %s\n", name, *ops, *threads, verdict(bad == 0))
	return bad == 0
}

// stressPQ checks conservation plus sorted drain at quiescence.
func stressPQ(name string, push func(int64), pop func() (int64, bool)) bool {
	var pushes, pops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(*seed) + uint64(g)*31 + 7
			for i := 0; i < *ops; i++ {
				x := xorshift(&rnd)
				if x&1 == 0 {
					push(int64(x >> 40 % 100000))
					pushes.Add(1)
				} else if _, ok := pop(); ok {
					pops.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	var drained []int64
	for {
		v, ok := pop()
		if !ok {
			break
		}
		drained = append(drained, v)
	}
	bad := 0
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] < drained[j] }) {
		fmt.Fprintf(out, "  FAIL %s: quiescent drain not sorted\n", name)
		bad++
	}
	if pushes.Load() != pops.Load()+int64(len(drained)) {
		fmt.Fprintf(out, "  FAIL %s: %d pushes, %d pops + %d drained\n",
			name, pushes.Load(), pops.Load(), len(drained))
		bad++
	}
	fmt.Fprintf(out, "  %-22s %d ops x %d threads: %s\n", name, *ops, *threads, verdict(bad == 0))
	return bad == 0
}

// txnSet adapts a composable structure to the plain set interface by running
// every operation through the transactional composition layer, so the
// linearizability spot-check exercises composed operations end to end (fast
// HTM path and MultiCAS fallback alike, depending on the capacity flags).
type txnSet struct {
	m *txn.Manager
	s txn.Set
}

func (t txnSet) Insert(k int64) bool {
	var r bool
	t.m.Atomic(func(c *txn.Ctx) { r = t.s.TxInsert(c, k) })
	return r
}

func (t txnSet) Remove(k int64) bool {
	var r bool
	t.m.Atomic(func(c *txn.Ctx) { r = t.s.TxRemove(c, k) })
	return r
}

func (t txnSet) Contains(k int64) bool {
	var r bool
	t.m.ReadOnly(func(c *txn.Ctx) { r = t.s.TxContains(c, k) })
	return r
}

// stressCompose drives the transactional composition layer: concurrent
// txn.Move and batched txn.MoveAll traffic over a src/dst pair of every
// composable set kind (BST, hash table, skiplist, Harris list), txn.Transfer
// traffic between two queues, and txn.MoveMin/txn.MoveToPQ traffic between a
// mound and a skiplist set — the arm where raw and composed operations
// meet, since every committed pop's moundify runs the mound's own CAS/DCAS
// against in-flight composed publications. Composed
// read-only snapshots assert online that each key lives in exactly one set
// of its pair, and key-count/value conservation is verified at quiescence.
// Every structure is registered with the manager's Registry and the pair
// matrix is enumerated from it, so adding a composable structure to this
// stress is one AddSet call, not a new code path. The linearizability
// spot-check runs concurrently through the txn layer.
func stressCompose(pol speculate.Policy) bool {
	m := txn.New(0).WithPolicy(pol)
	if *readCap != 0 || *writeCap != 0 {
		// Unlike applyCaps, negative values pass through: they force every
		// composed transaction down the MultiCAS fallback.
		m.Domain().SetCapacity(*readCap, *writeCap)
	}
	reg := m.Structures()
	reg.AddSet("bst/src", bst.NewPTOIn(m.Domain(), -1, -1))
	reg.AddSet("bst/dst", bst.NewPTOIn(m.Domain(), -1, -1))
	reg.AddSet("hashtable/src", hashtable.NewPTOTableIn(m.Domain(), 16, 0))
	reg.AddSet("hashtable/dst", hashtable.NewPTOTableIn(m.Domain(), 16, 0))
	reg.AddSet("skiplist/src", skiplist.NewPTOSetIn(m.Domain(), 0))
	reg.AddSet("skiplist/dst", skiplist.NewPTOSetIn(m.Domain(), 0))
	reg.AddSet("list/src", list.NewPTOIn(m.Domain(), 0))
	reg.AddSet("list/dst", list.NewPTOIn(m.Domain(), 0))
	reg.AddSet("mound/set", skiplist.NewPTOSetIn(m.Domain(), 0))
	reg.AddPQ("mound/pq", mound.NewPTOIn(m.Domain(), 10, 0))
	reg.AddQueue("queue/a", msqueue.NewPTOIn(m.Domain(), 0))
	reg.AddQueue("queue/b", msqueue.NewPTOIn(m.Domain(), 0))

	type cpair struct {
		name     string
		src, dst txn.Set
	}
	var pairs []cpair
	for _, n := range reg.SetNames() {
		if kind, ok := strings.CutSuffix(n, "/src"); ok {
			pairs = append(pairs, cpair{kind, reg.Set(n), reg.Set(kind + "/dst")})
		}
	}
	pq, pqSet := reg.PQ("mound/pq"), reg.Set("mound/set")
	q1, q2 := reg.Queue("queue/a"), reg.Queue("queue/b")
	for _, p := range pairs {
		for k := int64(0); k < int64(*keys); k++ {
			m.Atomic(func(c *txn.Ctx) { p.src.TxInsert(c, k) })
		}
	}
	for v := int64(0); v < int64(*keys); v++ {
		m.Atomic(func(c *txn.Ctx) { q1.TxEnqueue(c, v) })
	}
	// The mound arm conserves its own value universe 1..keys: value 0 would
	// collide with TxPopMin's zero return on an empty queue.
	for v := int64(1); v <= int64(*keys); v++ {
		m.Atomic(func(c *txn.Ctx) { pq.TxPush(c, v) })
	}

	linOK := true
	linDone := make(chan struct{})
	if *linWindows > 0 {
		bs := reg.Set("bst/src")
		go func() { defer close(linDone); linOK = linSpotCheck("compose/bst", txnSet{m, bs}) }()
	} else {
		close(linDone)
	}

	var invariantBad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(*seed)*2654435761 + uint64(g)*977 + 3
			for i := 0; i < *ops; i++ {
				x := xorshift(&rnd)
				p := pairs[(x>>8)%uint64(len(pairs))]
				k := int64(x >> 16 % uint64(*keys))
				switch x % 8 {
				case 0, 1, 2:
					if x&(1<<40) != 0 {
						txn.Move(m, p.src, p.dst, k)
					} else {
						txn.Move(m, p.dst, p.src, k)
					}
				case 3:
					// Batched arm: one composed publication moves the slice.
					ks := make([]int64, 2+x>>48%3)
					for j := range ks {
						ks[j] = int64((uint64(k) + uint64(j)*0x9E3779B9) % uint64(*keys))
					}
					if x&(1<<40) != 0 {
						txn.MoveAll(m, p.src, p.dst, ks...)
					} else {
						txn.MoveAll(m, p.dst, p.src, ks...)
					}
				case 4:
					n := 1 + int(x>>48%3)
					if x&(1<<40) != 0 {
						txn.Transfer(m, q1, q2, n)
					} else {
						txn.Transfer(m, q2, q1, n)
					}
				case 5:
					if x&(1<<40) != 0 {
						txn.MoveMin(m, pq, pqSet)
					} else {
						txn.MoveToPQ(m, pqSet, pq, k+1)
					}
				default:
					var inSrc, inDst bool
					m.ReadOnly(func(c *txn.Ctx) {
						inSrc = p.src.TxContains(c, k)
						inDst = p.dst.TxContains(c, k)
					})
					if inSrc == inDst {
						invariantBad.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-linDone

	bad := 0
	if !linOK {
		bad++
	}
	if n := invariantBad.Load(); n != 0 {
		fmt.Fprintf(out, "  FAIL compose: %d snapshots saw a key in zero or two sets\n", n)
		bad++
	}
	// Pair conservation, enumerated generically through the registry: every
	// key of the range must live in exactly one set of its pair, counted via
	// composed read-only snapshots (a key in both sets also breaks the count).
	for _, p := range pairs {
		got := 0
		for k := int64(0); k < int64(*keys); k++ {
			var inSrc, inDst bool
			m.ReadOnly(func(c *txn.Ctx) {
				inSrc = p.src.TxContains(c, k)
				inDst = p.dst.TxContains(c, k)
			})
			if inSrc {
				got++
			}
			if inDst {
				got++
			}
		}
		if got != *keys {
			fmt.Fprintf(out, "  FAIL compose: %s pair holds %d keys, want %d\n", p.name, got, *keys)
			bad++
		}
	}
	// Queue conservation: every enqueued value is in exactly one queue.
	seen := make([]int, *keys)
	drain := func(q txn.Queue) {
		for {
			var v int64
			var ok bool
			m.Atomic(func(c *txn.Ctx) { v, ok = q.TxDequeue(c) })
			if !ok {
				return
			}
			seen[v]++
		}
	}
	drain(q1)
	drain(q2)
	for v, c := range seen {
		if c != 1 {
			fmt.Fprintf(out, "  FAIL compose: queue value %d seen %d times\n", v, c)
			bad++
		}
	}
	// Mound arm conservation: every value 1..keys lives in exactly one of
	// {mound, its set} — count set membership through composed snapshots,
	// then drain the mound through composed pops.
	pqSeen := make([]int, *keys+1)
	for k := int64(1); k <= int64(*keys); k++ {
		var in bool
		m.ReadOnly(func(c *txn.Ctx) { in = pqSet.TxContains(c, k) })
		if in {
			pqSeen[k]++
		}
	}
	for {
		var v int64
		var ok bool
		m.Atomic(func(c *txn.Ctx) { v, ok = pq.TxPopMin(c) })
		if !ok {
			break
		}
		if v < 1 || v > int64(*keys) {
			fmt.Fprintf(out, "  FAIL compose: mound popped out-of-range value %d\n", v)
			bad++
			continue
		}
		pqSeen[v]++
	}
	for v := 1; v <= *keys; v++ {
		if pqSeen[v] != 1 {
			fmt.Fprintf(out, "  FAIL compose: mound value %d seen %d times\n", v, pqSeen[v])
			bad++
		}
	}
	fmt.Fprintf(out, "  %-22s %d ops x %d threads: %s\n", "compose/txn",
		*ops, *threads, verdict(bad == 0))
	return bad == 0
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}

// buildPolicy maps -policy to a speculate.Policy wired to the registry.
func buildPolicy() (speculate.Policy, bool) {
	switch *policyName {
	case "fixed":
		return speculate.Fixed(0).WithMetrics(registry), true
	case "adaptive":
		return speculate.Adaptive().WithMetrics(registry), true
	}
	return speculate.Policy{}, false
}

// printMetricsTable renders the per-site telemetry in a fixed-width table.
func printMetricsTable(snap telemetry.Snapshot) {
	fmt.Fprintf(out, "\n  %-22s %10s %10s %7s %9s %9s %9s %9s %8s %8s\n",
		"site", "attempts", "commits", "ratio",
		"conflict", "capacity", "explicit", "fallback", "disables", "skipped")
	for _, s := range snap.Sites {
		fmt.Fprintf(out, "  %-22s %10d %10d %7.3f %9d %9d %9d %9d %8d %8d\n",
			s.Name, s.Attempts, s.Commits, s.CommitRatio(),
			s.Conflicts, s.Capacity, s.Explicit,
			s.Fallbacks, s.Disables, s.Skipped)
	}
	if len(snap.Composed) > 0 {
		fmt.Fprintf(out, "\n  %-22s %10s %10s %10s %10s %10s %9s %9s %7s\n",
			"composed site", "ops", "fast", "fallback", "readonly",
			"mcas", "mcasfail", "restarts", "width")
		for _, c := range snap.Composed {
			mean := 0.0
			if c.Width.Count > 0 {
				mean = float64(c.Width.Sum) / float64(c.Width.Count)
			}
			fmt.Fprintf(out, "  %-22s %10d %10d %10d %10d %10d %9d %9d %7.1f\n",
				c.Name, c.Ops, c.FastCommits, c.FallbackCommits, c.ReadOnlyCommits,
				c.MCASAttempts, c.MCASFailures, c.Restarts, mean)
		}
	}
}

// structResult is one structure's verdict in the JSON output.
type structResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

// jsonResult is the machine-readable run summary emitted under -json.
type jsonResult struct {
	Variant    string             `json:"variant"`
	Policy     string             `json:"policy"`
	Threads    int                `json:"threads"`
	Ops        int                `json:"ops"`
	Keys       int                `json:"keys"`
	Seed       int64              `json:"seed"`
	ReadCap    int                `json:"readcap,omitempty"`
	WriteCap   int                `json:"writecap,omitempty"`
	Structures []structResult     `json:"structures"`
	Pass       bool               `json:"pass"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

func main() {
	flag.Parse()
	if *jsonOut {
		out = os.Stderr
	}
	if *semfuzz {
		os.Exit(runSemFuzz())
	}
	pol, ok := buildPolicy()
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q (want fixed or adaptive)\n", *policyName)
		os.Exit(2)
	}
	registry.PublishExpvar("pto_speculation")
	if *sample > 0 {
		smp := telemetry.StartSampler(registry, *sample, nil)
		defer smp.Stop()
	}
	if *metricsAddr != "" {
		http.Handle("/metrics", registry.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
			}
		}()
	}

	pto := *variant == "pto"
	run := map[string]func() bool{
		"bst": func() bool {
			if pto {
				t := bst.NewPTO12().WithPolicy(pol)
				applyCaps(t.Domain())
				return stressSet("bst/pto1+pto2", t)
			}
			return stressSet("bst/lockfree", bst.New())
		},
		"skiplist": func() bool {
			if pto {
				s := skiplist.NewPTOSet(0).WithPolicy(pol)
				applyCaps(s.Domain())
				return stressSet("skiplist/pto", s)
			}
			return stressSet("skiplist/lockfree", skiplist.NewSet())
		},
		"hashtable": func() bool {
			if pto {
				t := hashtable.NewInplaceTable(4, 0).WithPolicy(pol)
				applyCaps(t.Domain())
				return stressSet("hashtable/pto+inplace", t)
			}
			return stressSet("hashtable/lockfree", hashtable.NewTable(4))
		},
		"list": func() bool {
			if pto {
				s := list.NewPTO(0).WithPolicy(pol)
				applyCaps(s.Domain())
				return stressSet("list/pto", s)
			}
			return stressSet("list/lockfree", list.New())
		},
		"msqueue": func() bool {
			if pto {
				q := msqueue.NewPTO(0).WithPolicy(pol)
				applyCaps(q.Domain())
				return stressQueue("msqueue/pto", q.Enqueue, q.Dequeue)
			}
			q := msqueue.New()
			return stressQueue("msqueue/lockfree", q.Enqueue, q.Dequeue)
		},
		"mound": func() bool {
			if pto {
				q := mound.NewPTO(0, 0).WithPolicy(pol)
				applyCaps(q.Domain())
				return stressPQ("mound/pto", q.Insert, q.RemoveMin)
			}
			q := mound.New(0)
			return stressPQ("mound/lockfree", q.Insert, q.RemoveMin)
		},
		"compose": func() bool {
			if !pto {
				fmt.Fprintf(out, "  %-22s skipped (requires -variant pto)\n", "compose/txn")
				return true
			}
			return stressCompose(pol)
		},
	}
	names := []string{"bst", "skiplist", "hashtable", "list", "msqueue", "mound"}
	selected := names
	if *structure != "all" {
		if _, ok := run[*structure]; !ok {
			fmt.Fprintf(os.Stderr, "unknown structure %q (want one of %v or compose)\n", *structure, names)
			os.Exit(2)
		}
		selected = []string{*structure}
	}
	if *compose && *structure != "compose" {
		selected = append(append([]string{}, selected...), "compose")
	}
	fmt.Fprintf(out, "ptostress: variant=%s policy=%s threads=%d ops=%d keys=%d seed=%d\n",
		*variant, *policyName, *threads, *ops, *keys, *seed)
	allOK := true
	var results []structResult
	for _, n := range selected {
		ok := run[n]()
		results = append(results, structResult{Name: n, OK: ok})
		if !ok {
			allOK = false
		}
	}
	snap := registry.Snapshot()
	if *metrics {
		printMetricsTable(snap)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResult{
			Variant: *variant, Policy: *policyName,
			Threads: *threads, Ops: *ops, Keys: *keys, Seed: *seed,
			ReadCap: *readCap, WriteCap: *writeCap,
			Structures: results, Pass: allOK, Telemetry: snap,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "json encode: %v\n", err)
		}
	}
	if *hold > 0 {
		fmt.Fprintf(out, "holding metrics endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	if !allOK {
		os.Exit(1)
	}
}
