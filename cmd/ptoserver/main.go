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
//	ptoserver [-addr :8350] [-shards 4] [-maxbatch 64]
//
// The API is POST /v1/op with a JSON envelope (op: get/put/del, enqueue/
// dequeue, push/popmin, move/moveall/transfer/movemin/movetopq; put, del
// and moveall take a key list and commit it as one publication per shard),
// POST /v1/txn (a multi-op body run as one open transaction), plus
// GET /healthz and GET /statz (per-shard commit and open-transaction
// counters). Telemetry is the existing internal/telemetry export, mounted
// unchanged: /metrics (Prometheus text format) on the same mux.
// A -shards or -maxbatch below 1 is refused: exit 2, one line on stderr,
// before anything listens.
//
// On SIGINT/SIGTERM the server drains: the listener stops accepting and in-
// flight requests complete (http.Server.Shutdown — a request holds nothing
// that outlives its handler).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

var (
	addr     = flag.String("addr", ":8350", "serve the op API on this address")
	shards   = flag.Int("shards", server.DefaultShards, "shard count (each shard owns its own htm domain)")
	maxBatch = flag.Int("maxbatch", server.DefaultMaxBatch, "max ops per publication: a request's key list, a transfer's n, a /v1/txn body")
)

func main() {
	flag.Parse()
	if *shards < 1 {
		refuse("invalid -shards %d (want at least 1)", *shards)
	}
	if *maxBatch < 1 {
		refuse("invalid -maxbatch %d (want at least 1)", *maxBatch)
	}

	srv := server.New(server.Config{Shards: *shards, MaxBatch: *maxBatch})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", srv.Registry().Handler())

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ptoserver: %d shards (maxbatch %d) on %s",
		len(srv.Stats().Shards), *maxBatch, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("ptoserver: %v — draining", sig)
	case err := <-errc:
		log.Fatalf("ptoserver: listener failed: %v", err)
	}

	// Drain: stop the listener and let in-flight handlers run to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("ptoserver: shutdown: %v", err)
	}
	st := srv.Stats()
	fmt.Printf("ptoserver: drained. publications=%d open_txns=%d\n", st.Publications, st.OpenTxns)
}

// refuse reports an unusable argument on one line of stderr and exits 2,
// before anything listens.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
