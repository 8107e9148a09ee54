// Command ptoload is ptoserver's load generator: an open-loop driver that
// models a large session population hammering the service with zipfian key
// popularity, and emits a machine-readable BENCH_serve.json.
//
// Open-loop means arrivals are paced by the offered rate, not by the
// server's responses: when the server falls behind, requests queue against
// a bounded in-flight window and the overflow is counted as client-side
// drops instead of silently throttling the workload — so a slow server
// shows up as lost throughput and latency, the way real users experience
// it. Each arrival is attributed to a modeled session (session id drawn
// uniformly from -sessions, default one million) whose RNG stream picks the
// op; key popularity is zipfian over -keys with exponent -zipf.
//
// Scenarios (-scenario, comma-separated):
//
//   - compare: the amortization headline. Phase put_unbatched offers R
//     single-key writes/s; phase put_batched offers the same R key-writes/s
//     as multi-key envelopes of -batch keys — each envelope one composed
//     publication per shard touched. BENCH_serve.json reports keys/s for
//     both and their ratio (summary.batched_speedup).
//
//   - mix: a general op mix (reads, single-key writes, cross-structure
//     moves, queue and PQ traffic) for headline throughput and latency
//     percentiles.
//
//   - txn: declarative multi-op bodies against POST /v1/txn, each one open
//     transaction with semantic validation on its shard. Claim/release
//     bodies carry assert clauses over zipf-contended keys, so a fraction
//     abort 409 (summary.txn_conflicts_409); committed bodies and the
//     server's open-transaction counters land in summary.txn_committed and
//     the scenario's server delta.
//
// A reply is a 200, a 409 (an assert clause of a /v1/txn body lost its race)
// or an error: the server refuses nothing for load, so any other status —
// and any transport failure — fails summary.completed_ok.
//
// Results merge into -out: scenarios already present in the file are
// replaced by name, others are kept, and the summary is recomputed over the
// merged set — so runs against differently configured servers can
// accumulate into one artifact.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

var (
	addr      = flag.String("addr", "127.0.0.1:8350", "ptoserver address (host:port)")
	scenarios = flag.String("scenario", "mix", "comma-separated: compare, mix, txn")
	duration  = flag.Duration("duration", 5*time.Second, "duration per scenario phase")
	rate      = flag.Float64("rate", 3000, "offered ops/s (key-writes/s for compare)")
	inflight  = flag.Int("inflight", 256, "max in-flight requests (the open-loop window)")
	keys      = flag.Int64("keys", 4096, "key range")
	zipfS     = flag.Float64("zipf", 1.1, "zipfian exponent for key popularity (>1)")
	sessions  = flag.Int64("sessions", 1_000_000, "modeled session population")
	batchK    = flag.Int("batch", 8, "keys per multi-key put in the batched phase")
	seed      = flag.Int64("seed", 1, "RNG seed")
	out       = flag.String("out", "BENCH_serve.json", "output JSON (merged with existing scenarios)")
)

// client is shared across scenarios: enough idle conns for the whole
// in-flight window so connection churn never pollutes the latency numbers.
var client *http.Client

// serverDelta is the /statz movement a scenario caused.
type serverDelta struct {
	Publications uint64 `json:"publications"`
	OpenTxns     uint64 `json:"open_txns,omitempty"`
}

// scenarioResult is one scenario's measured outcome.
type scenarioResult struct {
	Name         string      `json:"name"`
	Batched      bool        `json:"batched"`
	OfferedRate  float64     `json:"offered_per_s"`
	DurationSec  float64     `json:"duration_s"`
	Completed    uint64      `json:"completed"`
	OKs          uint64      `json:"ok"`
	Conflicts409 uint64      `json:"conflict_409,omitempty"`
	ClientDrops  uint64      `json:"client_drops"`
	Errors       uint64      `json:"errors"`
	KeysWritten  uint64      `json:"keys_written"`
	Throughput   float64     `json:"throughput_per_s"`
	KeysPerSec   float64     `json:"keys_per_s"`
	P50Ms        float64     `json:"p50_ms"`
	P99Ms        float64     `json:"p99_ms"`
	Server       serverDelta `json:"server"`
}

// benchFile is the merged BENCH_serve.json shape.
type benchFile struct {
	Bench     string           `json:"bench"`
	Config    map[string]any   `json:"config"`
	Scenarios []scenarioResult `json:"scenarios"`
	Summary   map[string]any   `json:"summary"`
}

func main() {
	flag.Parse()
	// A misspelt or retired scenario fails before anything is sent, not after
	// the scenarios named ahead of it have run.
	for _, sc := range strings.Split(*scenarios, ",") {
		switch strings.TrimSpace(sc) {
		case "compare", "mix", "txn", "":
		default:
			log.Fatalf("ptoload: unknown scenario %q (compare, mix, txn)", sc)
		}
	}
	client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *inflight + 8,
			MaxIdleConnsPerHost: *inflight + 8,
		},
	}
	if err := waitHealthy(20 * time.Second); err != nil {
		log.Fatalf("ptoload: server not healthy: %v", err)
	}

	var results []scenarioResult
	for _, sc := range strings.Split(*scenarios, ",") {
		switch strings.TrimSpace(sc) {
		case "compare":
			results = append(results, runCompareUnbatched(), runCompareBatched())
		case "mix":
			results = append(results, runMix())
		case "txn":
			results = append(results, runTxnScenario())
		}
	}
	writeMerged(results)
}

func waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + *addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("healthz status %d", 0)
			}
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetchStats() server.Stats {
	var st server.Stats
	resp, err := client.Get("http://" + *addr + "/statz")
	if err != nil {
		log.Printf("ptoload: statz: %v", err)
		return st
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Printf("ptoload: statz decode: %v", err)
	}
	return st
}

func statsDelta(before, after server.Stats) serverDelta {
	return serverDelta{
		Publications: after.Publications - before.Publications,
		OpenTxns:     after.OpenTxns - before.OpenTxns,
	}
}

// opSpec is one generated arrival: a /v1/op envelope, or a /v1/txn body
// when txn is set.
type opSpec struct {
	req  server.Request
	txn  *server.TxnRequest
	keys int // key-writes this request carries (for keys/s accounting)
}

// gen produces arrivals for a scenario: nil return = skip this slot.
type gen func(r *rand.Rand, zipf *rand.Zipf) opSpec

// engine runs one open-loop phase: arrivals at r ops/s, bounded in-flight
// window, latency reservoir.
func engine(name string, batched bool, dur time.Duration, r float64, g gen) scenarioResult {
	res := scenarioResult{Name: name, Batched: batched, DurationSec: dur.Seconds()}
	before := fetchStats()

	const maxSamples = 1 << 18
	samples := make([]int64, maxSamples)
	var nSamples atomic.Int64
	var completed, oks, conflicts, drops, errs, keysWritten atomic.Uint64

	sem := make(chan struct{}, *inflight)
	var wg sync.WaitGroup
	rnd := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rnd, *zipfS, 1, uint64(*keys-1))

	start := time.Now()
	var tokens float64
	var offered float64
	step := 2 * time.Millisecond
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	for now := range ticker.C {
		if now.Sub(start) >= dur {
			break
		}
		tokens += r * step.Seconds()
		offered += r * step.Seconds()
		for tokens >= 1 {
			tokens--
			spec := g(rnd, zipf)
			select {
			case sem <- struct{}{}:
			default:
				// Open-loop overflow: the in-flight window is full, the
				// arrival is lost, and that loss is the datum.
				drops.Add(1)
				continue
			}
			wg.Add(1)
			go func(spec opSpec) {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				status := fire(spec)
				lat := time.Since(t0).Nanoseconds()
				completed.Add(1)
				switch status {
				case http.StatusOK:
					oks.Add(1)
					keysWritten.Add(uint64(spec.keys))
					if i := nSamples.Add(1) - 1; i < maxSamples {
						samples[i] = lat
					}
				case http.StatusConflict:
					// An assert clause lost its race — expected traffic for
					// the txn scenario, not an error.
					conflicts.Add(1)
				default:
					errs.Add(1)
				}
			}(spec)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res.OfferedRate = offered / elapsed
	res.Completed = completed.Load()
	res.OKs = oks.Load()
	res.Conflicts409 = conflicts.Load()
	res.ClientDrops = drops.Load()
	res.Errors = errs.Load()
	res.KeysWritten = keysWritten.Load()
	res.Throughput = float64(res.OKs) / elapsed
	res.KeysPerSec = float64(res.KeysWritten) / elapsed
	res.P50Ms, res.P99Ms = percentiles(samples, nSamples.Load())
	res.Server = statsDelta(before, fetchStats())
	log.Printf("ptoload: %-16s offered %7.0f/s ok %7d (%.0f/s, %.0f keys/s) drops %d errs %d p50 %.2fms p99 %.2fms",
		name, res.OfferedRate, res.OKs, res.Throughput, res.KeysPerSec, res.ClientDrops, res.Errors, res.P50Ms, res.P99Ms)
	return res
}

// fire posts one arrival — /v1/txn when the spec carries a transaction,
// /v1/op otherwise — and returns the HTTP status (0 on transport error).
func fire(spec opSpec) int {
	path, payload := "/v1/op", any(spec.req)
	if spec.txn != nil {
		path, payload = "/v1/txn", spec.txn
	}
	body, _ := json.Marshal(payload)
	resp, err := client.Post("http://"+*addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var r server.Response
	json.NewDecoder(resp.Body).Decode(&r)
	return resp.StatusCode
}

func percentiles(samples []int64, n int64) (p50, p99 float64) {
	if n > int64(len(samples)) {
		n = int64(len(samples))
	}
	if n == 0 {
		return 0, 0
	}
	s := append([]int64(nil), samples[:n]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50 = float64(s[n/2]) / 1e6
	p99 = float64(s[n*99/100]) / 1e6
	return
}

// sessionKey draws one zipfian key for a modeled session: the session id
// rotates the popularity ranking so "hot" is hot globally but which keys a
// session touches varies across the population.
func sessionKey(r *rand.Rand, zipf *rand.Zipf) int64 {
	sid := r.Int63n(*sessions)
	return int64((zipf.Uint64() + uint64(sid)*0x9E3779B9) % uint64(*keys))
}

// hotKey draws from the unrotated zipf ranking — maximum cross-session
// contention, for the txn scenario's assert clauses.
func hotKey(zipf *rand.Zipf) int64 { return int64(zipf.Uint64()) }

// runCompareUnbatched: R single-key writes/s, put/del 50/50.
func runCompareUnbatched() scenarioResult {
	return engine("put_unbatched", false, *duration, *rate, func(r *rand.Rand, zipf *rand.Zipf) opSpec {
		op := server.OpPut
		if r.Intn(2) == 0 {
			op = server.OpDel
		}
		return opSpec{req: server.Request{Op: op, Key: sessionKey(r, zipf)}, keys: 1}
	})
}

// runCompareBatched: the same R key-writes/s as envelopes of batchK keys —
// request rate R/k, each request one composed publication per shard.
func runCompareBatched() scenarioResult {
	k := *batchK
	return engine("put_batched", true, *duration, *rate/float64(k), func(r *rand.Rand, zipf *rand.Zipf) opSpec {
		ks := make([]int64, k)
		for i := range ks {
			ks[i] = sessionKey(r, zipf)
		}
		op := server.OpPut
		if r.Intn(2) == 0 {
			op = server.OpDel
		}
		return opSpec{req: server.Request{Op: op, Keys: ks}, keys: k}
	})
}

// runMix: the general scenario — reads, single-key writes, cross-structure
// moves, queue and PQ traffic.
func runMix() scenarioResult {
	return engine("mix", false, *duration, *rate, func(r *rand.Rand, zipf *rand.Zipf) opSpec {
		k := sessionKey(r, zipf)
		switch p := r.Intn(100); {
		case p < 50:
			return opSpec{req: server.Request{Op: server.OpGet, Key: k}}
		case p < 70:
			return opSpec{req: server.Request{Op: server.OpPut, Key: k}, keys: 1}
		case p < 75:
			return opSpec{req: server.Request{Op: server.OpDel, Key: k}, keys: 1}
		case p < 85:
			return opSpec{req: server.Request{Op: server.OpMove, Key: k}}
		case p < 90:
			ks := []int64{k, (k + 13) % *keys, (k + 57) % *keys, (k + 131) % *keys}
			return opSpec{req: server.Request{Op: server.OpMoveAll, Keys: ks}}
		case p < 93:
			return opSpec{req: server.Request{Op: server.OpEnqueue, Value: k}}
		case p < 96:
			return opSpec{req: server.Request{Op: server.OpDequeue}}
		case p < 98:
			return opSpec{req: server.Request{Op: server.OpPush, Value: k}}
		case p < 99:
			return opSpec{req: server.Request{Op: server.OpPopMin}}
		default:
			return opSpec{req: server.Request{Op: server.OpTransfer, N: 2}}
		}
	})
}

// runTxnScenario: multi-op declarative bodies against /v1/txn. The claim
// and release bodies use assert clauses (claim a key only if absent, then
// stage it into the queue; release only if present, then schedule it), so
// under zipf contention a fraction land 409 — the conflict_409 count and
// the open-txn server counters are the scenario's point.
func runTxnScenario() scenarioResult {
	f, tr := false, true
	return engine("txn", false, *duration, *rate, func(r *rand.Rand, zipf *rand.Zipf) opSpec {
		k := hotKey(zipf)
		switch p := r.Intn(100); {
		case p < 30: // claim: CAS-like insert + enqueue, one round trip
			return opSpec{txn: &server.TxnRequest{Ops: []server.TxnOp{
				{Op: server.OpGet, Key: k, Assert: &f},
				{Op: server.OpPut, Key: k},
				{Op: server.OpEnqueue, Value: k},
			}}, keys: 1}
		case p < 50: // release: guarded delete + schedule
			return opSpec{txn: &server.TxnRequest{Ops: []server.TxnOp{
				{Op: server.OpGet, Key: k, Assert: &tr},
				{Op: server.OpDel, Key: k},
				{Op: server.OpPush, Value: k},
			}}, keys: 1}
		case p < 70: // sweep: read-only multi-get
			return opSpec{txn: &server.TxnRequest{Ops: []server.TxnOp{
				{Op: server.OpGet, Key: k},
				{Op: server.OpGet, Key: (k + 13) % *keys},
				{Op: server.OpGet, Key: (k + 57) % *keys},
			}}}
		case p < 85: // shuttle: dequeue whatever is staged, repush it
			return opSpec{txn: &server.TxnRequest{Ops: []server.TxnOp{
				{Op: server.OpDequeue},
				{Op: server.OpPush, Value: k},
			}}, keys: 1}
		default: // drain: take the scheduler's min, log it on egress
			return opSpec{txn: &server.TxnRequest{Ops: []server.TxnOp{
				{Op: server.OpPopMin},
				{Op: server.OpEnqueue, Struct: "egress", Value: k},
			}}, keys: 1}
		}
	})
}

// writeMerged merges the new results into -out and recomputes the summary
// over everything present.
func writeMerged(results []scenarioResult) {
	file := benchFile{Bench: "pto_serve"}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			log.Printf("ptoload: ignoring unparseable %s: %v", *out, err)
			file = benchFile{Bench: "pto_serve"}
		}
	}
	for _, r := range results {
		replaced := false
		for i := range file.Scenarios {
			if file.Scenarios[i].Name == r.Name {
				file.Scenarios[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			file.Scenarios = append(file.Scenarios, r)
		}
	}
	file.Config = map[string]any{
		"addr": *addr, "rate": *rate, "inflight": *inflight, "keys": *keys,
		"zipf_s": *zipfS, "sessions": *sessions, "batch_k": *batchK,
		"duration_s": duration.Seconds(), "seed": *seed,
	}
	file.Summary = summarize(file.Scenarios)

	data, _ := json.MarshalIndent(file, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("ptoload: write %s: %v", *out, err)
	}
	sum, _ := json.Marshal(file.Summary)
	log.Printf("ptoload: wrote %s; summary %s", *out, sum)
}

func summarize(scs []scenarioResult) map[string]any {
	sum := map[string]any{}
	var total, errs uint64
	byName := map[string]scenarioResult{}
	for _, s := range scs {
		total += s.OKs
		errs += s.Errors
		byName[s.Name] = s
	}
	sum["total_completed"] = total
	sum["total_errors"] = errs
	sum["completed_ok"] = total > 0 && errs == 0
	if ub, ok := byName["put_unbatched"]; ok {
		if b, ok := byName["put_batched"]; ok && ub.KeysPerSec > 0 {
			speedup := b.KeysPerSec / ub.KeysPerSec
			sum["batched_speedup"] = speedup
			sum["batched_speedup_ok"] = speedup >= 2
		}
	}
	if tx, ok := byName["txn"]; ok {
		sum["txn_committed"] = tx.OKs
		sum["txn_conflicts_409"] = tx.Conflicts409
		sum["txn_ok"] = tx.OKs > 0 && tx.Errors == 0
	}
	return sum
}
