// Command ptoserver serves the transactional composition layer over HTTP:
// a sharded key-value + priority-scheduling service where every operation
// is one composed PTO transaction (internal/server). Each shard owns its
// own htm domain (own commit clock), its own txn.Manager and speculation
// policy, and its own structures. A request commits on the goroutine
// net/http gave it; the server runs no background loop and refuses no
// request for load.
//
// Usage:
//
//	ptoserver [-addr :8350] [-shards 4]
//	          [-policy fixed|adaptive]
//	          [-readcap N] [-writecap N] [-maxbatch 64]
//	          [-metrics-addr :8351] [-sample 1s]
//
// The API is POST /v1/op with a JSON envelope (op: get/put/del, enqueue/
// dequeue, push/popmin, move/moveall/transfer/movemin/movetopq; put, del
// and moveall take a key list and commit it as one publication per shard),
// POST /v1/txn (a multi-op body run as one open transaction), plus
// GET /healthz and GET /statz (per-shard commit and open-transaction
// counters). Telemetry is the existing internal/telemetry export, mounted
// unchanged: /metrics (Prometheus text format) and /debug/vars (expvar) on
// the main mux, and on -metrics-addr too when given, so a scraper can stay
// off the serving port.
// -readcap/-writecap retune every shard domain's transactional capacity;
// negative values force every composed operation down the MultiCAS
// fallback; small positive values crush the fast path into capacity aborts
// (slower, never refused: the fallback keeps the original's progress).
// -sample logs interval-rate telemetry deltas.
//
// On SIGINT/SIGTERM the server drains: the listener stops accepting, in-
// flight requests complete (http.Server.Shutdown — a request holds nothing
// that outlives its handler), and the sampler emits one final
// partial-interval delta before exit.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/speculate"
	"repro/internal/telemetry"
)

var (
	addr        = flag.String("addr", ":8350", "serve the op API on this address")
	shards      = flag.Int("shards", server.DefaultShards, "shard count (each shard owns its own htm domain)")
	policyName  = flag.String("policy", "fixed", "speculation policy: fixed or adaptive")
	readCap     = flag.Int("readcap", 0, "transactional read capacity (0 = default, negative = force fallback)")
	writeCap    = flag.Int("writecap", 0, "transactional write capacity (0 = default, negative = force fallback)")
	maxBatch    = flag.Int("maxbatch", server.DefaultMaxBatch, "max ops per publication: a request's key list, a transfer's n, a /v1/txn body")
	metricsAddr = flag.String("metrics-addr", "", "additionally serve /metrics and /debug/vars on this address")
	sample      = flag.Duration("sample", 0, "log interval-rate telemetry deltas at this period (0 = off)")
)

func main() {
	flag.Parse()

	var pol speculate.Policy
	switch *policyName {
	case "fixed":
		pol = speculate.Fixed(0)
	case "adaptive":
		pol = speculate.Adaptive()
	default:
		log.Fatalf("unknown -policy %q (want fixed or adaptive)", *policyName)
	}

	reg := telemetry.NewRegistry()
	srv := server.New(server.Config{
		Shards:   *shards,
		Policy:   pol,
		ReadCap:  *readCap,
		WriteCap: *writeCap,
		MaxBatch: *maxBatch,
		Registry: reg,
	})

	// Reuse the existing telemetry exporters, unchanged: Prometheus text
	// format from the registry, expvar via the standard handler.
	reg.PublishExpvar("pto_speculation")
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	if *metricsAddr != "" {
		mmux := http.NewServeMux()
		mmux.Handle("/metrics", reg.Handler())
		mmux.Handle("/debug/vars", expvar.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mmux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	var sampler *telemetry.Sampler
	if *sample > 0 {
		sampler = telemetry.StartSampler(reg, *sample, nil)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ptoserver: %d shards (policy %s, maxbatch %d) on %s",
		*shards, *policyName, *maxBatch, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("ptoserver: %v — draining", sig)
	case err := <-errc:
		log.Fatalf("ptoserver: listener failed: %v", err)
	}

	// Drain: stop the listener and let in-flight handlers run to completion,
	// then the sampler's final partial-interval delta.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("ptoserver: shutdown: %v", err)
	}
	if sampler != nil {
		sampler.Stop()
	}
	st := srv.Stats()
	fmt.Printf("ptoserver: drained. publications=%d open_txns=%d\n", st.Publications, st.OpenTxns)
}
