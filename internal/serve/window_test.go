package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mpu/internal/machine"
)

// pendingSeals counts the taken batches whose window timer is still armed.
func pendingSeals(s *Server) int {
	n := 0
	for _, p := range s.pools {
		p.mu.Lock()
		n += len(p.pending)
		p.mu.Unlock()
	}
	return n
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowOverlapsLatency pins that the batch window no longer idles the
// machine: on a one-machine pool a latency request sent 50ms after a
// batch-class request is answered long before the batch's 1s window closes,
// while the batch-class answer still waits for its seal.
func TestWindowOverlapsLatency(t *testing.T) {
	const window = time.Second
	_, ts := newTestServer(t, Config{
		Pools:       []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		BatchWindow: window,
	})
	start := time.Now()
	batchDone := make(chan time.Duration, 1)
	go func() {
		code, body := postExecuteClass(t, ts.URL, ClassBatch, Request{
			Workload: "vecadd", Backend: "racer", Elements: 64, Seed: 1,
		})
		if code != http.StatusOK {
			t.Errorf("batch request: %d %s", code, body)
		}
		batchDone <- time.Since(start)
	}()
	time.Sleep(50 * time.Millisecond)
	latStart := time.Now()
	code, body := postExecuteClass(t, ts.URL, ClassLatency, Request{
		Workload: "vecxor", Backend: "racer", Elements: 64, Seed: 2,
	})
	latency := time.Since(latStart)
	if code != http.StatusOK {
		t.Fatalf("latency request: %d %s", code, body)
	}
	if latency > window/2 {
		t.Errorf("latency request took %v behind a batch in its %v window", latency, window)
	}
	if got := <-batchDone; got < window {
		t.Errorf("batch-class answer after %v, before its %v seal", got, window)
	}
}

// TestJoinWhileRunning pins that a batch-class batch stays open to identical
// requests while it runs, both inside its window and after the window has
// closed on a run that outlasts it: a twin admitted mid-run joins, both
// answers report batch_size 2 with identical stats, and one batch is counted.
func TestJoinWhileRunning(t *testing.T) {
	for _, tc := range []struct {
		name     string
		window   time.Duration
		inWindow bool // the twin arrives while the window is still running
	}{
		{"inside the window", time.Second, true},
		{"after the window", time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{
				Pools:       []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
				BatchWindow: tc.window,
			})
			// Enough elements that the run outlasts the gap between
			// observing it and the twin's admission.
			req := Request{Workload: "gcd", Backend: "racer", Elements: 1 << 18, Seed: 5, Check: true}
			p := s.pools["RACER/MPU"]
			bodies := make([][]byte, 2)
			var wg sync.WaitGroup
			send := func(i int) {
				defer wg.Done()
				code, body := postExecuteClass(t, ts.URL, ClassBatch, req)
				if code != http.StatusOK {
					t.Errorf("request %d: %d %s", i, code, body)
				}
				bodies[i] = body
			}
			wg.Add(1)
			go send(0)
			waitFor(t, "the batch to be running", func() bool {
				p.mu.Lock()
				defer p.mu.Unlock()
				for _, b := range p.open {
					return p.workers[0].busy && len(p.batQ) == 0 && b.res == nil && p.pending[b] == tc.inWindow
				}
				return false
			})
			wg.Add(1)
			go send(1)
			// A result is never withdrawn, so a run unfinished when the
			// join is first seen was unfinished at the join.
			var joinedRunning bool
			waitFor(t, "the twin to join", func() bool {
				p.mu.Lock()
				defer p.mu.Unlock()
				for _, b := range p.open {
					joinedRunning = b.res == nil
					return len(b.waiters) == 2
				}
				return false
			})
			if !joinedRunning {
				t.Errorf("the run finished before the twin joined; raise the element count")
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			a, b := decodeResponse(t, bodies[0]), decodeResponse(t, bodies[1])
			if a.BatchSize != 2 || b.BatchSize != 2 {
				t.Fatalf("batch sizes %d and %d, want 2 and 2", a.BatchSize, b.BatchSize)
			}
			if !bytes.Equal(a.Stats, b.Stats) {
				t.Fatalf("joined stats diverge:\n%s\n%s", a.Stats, b.Stats)
			}
			if got := scrapeMetric(t, ts.URL, "mpud_batches_total"); got != "1" {
				t.Fatalf("mpud_batches_total = %s, want 1", got)
			}
		})
	}
}

// TestCloseFiresPendingSeals pins the seal lifecycle: a finished batch whose
// only waiter gave up with 504 is still held by its window's timer, and
// Close fires it rather than waiting the window out, leaving no pending seal
// behind.
func TestCloseFiresPendingSeals(t *testing.T) {
	s, err := New(Config{
		Pools:       []PoolSpec{{Backend: "racer", Mode: machine.ModeMPU, Size: 1}},
		BatchWindow: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(s.Close) // both Closes are idempotent; these cover early exits
	t.Cleanup(ts.Close)
	code, body, _ := postExecute(t, ts.URL, Request{
		Workload: "vecxor", Backend: "racer", Elements: 64, DeadlineMS: 20,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", code, body)
	}
	waitFor(t, "the batch's seal to be armed", func() bool { return pendingSeals(s) == 1 })
	ts.Close()
	t0 := time.Now()
	s.Close()
	if d := time.Since(t0); d > 250*time.Millisecond {
		t.Errorf("Close took %v with a 1s window pending", d)
	}
	if n := pendingSeals(s); n != 0 {
		t.Errorf("%d seals pending after Close", n)
	}
}
