package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines is the goroutine count once it has stopped moving:
// earlier tests' keep-alive connections close asynchronously.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestShutdownKeepsAcknowledgedWrites: a graceful drain mid-burst keeps
// every write it acknowledged. Eight writers post puts of distinct keys and
// /v1/txn bodies (put k, enqueue k) pinned to k's owning shard to a server
// on a loopback listener; http.Server.Shutdown runs while they do. Shutdown
// returns nil, every reply is a 200 (a transport error once shutdown has
// begun is the only other outcome), every acknowledged key is in its
// owner's hot set, every acknowledged body's value is in its owner's
// ingress queue, and no goroutine outlives the drain.
func TestShutdownKeepsAcknowledgedWrites(t *testing.T) {
	const writers = 8
	before := settledGoroutines()

	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: writers}
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()

	var (
		stopping atomic.Bool
		acked    atomic.Int64
		wg       sync.WaitGroup
		puts     [writers][]int64 // keys whose put got a 200
		bodies   [writers][]int64 // keys whose /v1/txn body got a 200
	)
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				k := int64(g)<<32 | int64(i)
				path, req := "/v1/op", any(Request{Op: OpPut, Key: k})
				if i%2 == 1 {
					owner := srv.shardFor(k).id
					path, req = "/v1/txn", TxnRequest{Shard: &owner, Ops: []TxnOp{
						{Op: OpPut, Key: k},
						{Op: OpEnqueue, Value: k},
					}}
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					if !stopping.Load() {
						t.Errorf("writer %d: %v before shutdown began", g, err)
					}
					return
				}
				reply, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: %s: status %d: %s", g, path, resp.StatusCode, reply)
					return
				}
				if path == "/v1/op" {
					puts[g] = append(puts[g], k)
				} else {
					bodies[g] = append(bodies[g], k)
				}
				acked.Add(1)
			}
		}()
	}

	// Mid-burst: once the writers have a few hundred acknowledgements.
	for deadline := time.Now().Add(5 * time.Second); acked.Load() < 400 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stopping.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	tr.CloseIdleConnections()
	if acked.Load() == 0 {
		t.Fatal("no write was acknowledged before shutdown")
	}

	queued := make(map[int64]bool)
	for _, sh := range srv.shards {
		q := sh.queue("", DefaultQueue)
		for {
			v, ok := sh.dequeue(q)
			if !ok {
				break
			}
			queued[v] = true
		}
	}
	for g := range writers {
		for _, k := range append(puts[g], bodies[g]...) {
			if sh := srv.shardFor(k); !sh.get(sh.set("", DefaultSet), k) {
				t.Errorf("acknowledged key %#x is not on shard %d's hot set", k, sh.id)
			}
		}
		for _, k := range bodies[g] {
			if !queued[k] {
				t.Errorf("acknowledged body's value %#x is not in shard %d's ingress queue", k, srv.shardFor(k).id)
			}
		}
	}
	if after := settledGoroutines(); after > before {
		t.Errorf("%d goroutines after shutdown, %d before the server", after, before)
	}
	t.Logf("%d writes acknowledged before the drain", acked.Load())
}
