package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mpu/internal/serve"
)

func TestSelfTimeOverlappingHedges(t *testing.T) {
	router := interval{0, 100}
	// A primary attempt and its hedge overlap on [30, 40]; a third child
	// runs past the parent's end and is clipped to it.
	kids := []interval{{10, 40}, {30, 60}, {90, 120}}
	if got := covered(router, kids); got != 60 {
		t.Fatalf("covered = %d, want 60 (10..60 once, plus 90..100)", got)
	}
	if got := selfTime(router, kids); got != 40 {
		t.Fatalf("self = %d, want 40", got)
	}
	if got := selfTime(router, nil); got != 100 {
		t.Fatalf("self with no children = %d, want 100", got)
	}
	// A hedge entirely inside its primary adds nothing.
	if got := selfTime(router, []interval{{10, 80}, {20, 30}}); got != 30 {
		t.Fatalf("self with nested hedge = %d, want 30", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return v
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond; want an error")
	}
	got, err := percentile(ramp(1000), 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", got, err)
	}
	if _, err := percentile(ramp(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond; want an error")
	}
	if got, err := percentile(ramp(20), 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	// Failed ops are +Inf: slower than every answer, so they push the
	// percentile up instead of vanishing from the sample.
	v := ramp(1000)
	for i := 0; i < 11; i++ {
		v[i] = math.Inf(1)
	}
	if got, _ := percentile(v, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 11 failures = %v, want +Inf", got)
	}
}

// stallIssuer posts to a test server whose first request stalls.
type stallIssuer struct{ cl *client }

func (s *stallIssuer) issue(ctx context.Context, i int, smp *sample) {
	s.cl.post(ctx, "/", "", nil, smp)
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	is := &stallIssuer{cl: cl}

	// One queue, as for a session: every arrival behind the stalled one
	// waits for it before it is even sent.
	ctx := context.Background()
	d := newQueueDispatcher(ctx, is, 1, func(int) int { return 0 })
	ph := openLoop(ctx, d, 100, 20, 1, 0)
	if len(ph.samples) != 20 {
		t.Fatalf("%d samples, want 20", len(ph.samples))
	}
	first := ph.samples[0]
	for _, s := range ph.samples[1:] {
		if s.due >= first.done {
			continue // due after the stall cleared
		}
		wait := time.Duration(first.done - s.due)
		if got := time.Duration(s.done - s.due); got < wait {
			t.Fatalf("op %d due %v before the stall cleared took %v from due, want >= %v", s.op, wait, got, wait)
		}
		if sendToDone := time.Duration(s.done - s.sent); sendToDone > stall/2 {
			t.Fatalf("op %d: send-to-answer %v; the test needs ops that were sent late", s.op, sendToDone)
		}
	}
	if got := time.Duration(ph.samples[1].latencyMS() * 1e6); got < stall/2 {
		t.Fatalf("second arrival latency %v, want most of the %v stall", got, stall)
	}
}

func TestOpListIsAFunctionOfSeed(t *testing.T) {
	combos := lightCombos()[:2]
	build := func(seed int64) *execPlan {
		p, err := buildExecPlan(seed, combos, serve.ClassLatency, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := build(7), build(7), build(8)
	sameOps := func(x, y *execPlan) bool {
		for i := 0; i < 2*len(x.perm); i++ {
			if !bytes.Equal(x.op(i).body, y.op(i).body) || !bytes.Equal(x.op(i).want, y.op(i).want) {
				return false
			}
		}
		return true
	}
	if !sameOps(a, b) {
		t.Fatal("seed 7 built two different execute op lists")
	}
	if sameOps(a, c) {
		t.Fatal("seeds 7 and 8 built the same execute op list")
	}

	p7, err := buildPipePlan(7, "..")
	if err != nil {
		t.Fatal(err)
	}
	p8, err := buildPipePlan(8, "..")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := buildPipePlan(7, "..")
	enc := func(p *pipePlan, s, adv int) []byte {
		b, err := json.Marshal(p.records(s, adv))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ring := 0
	for i := 0; i < 64; i++ {
		if p7.session(i) != again.session(i) {
			t.Fatalf("op %d routed differently for the same seed", i)
		}
		if p7.sessions[p7.session(i)].ring {
			ring++
		}
	}
	if ring != 64/ringEvery {
		t.Fatalf("ring got %d of 64 advances, want %d", ring, 64/ringEvery)
	}
	for s := range p7.sessions {
		if !bytes.Equal(enc(p7, s, 3), enc(again, s, 3)) {
			t.Fatalf("session %d: same seed, different records", s)
		}
		if bytes.Equal(enc(p7, s, 3), enc(p8, s, 3)) {
			t.Fatalf("session %d: seeds 7 and 8 gave the same records", s)
		}
	}
}

func TestCheckExecAllowsOnlyBatchSize(t *testing.T) {
	p, err := buildExecPlan(3, lightCombos()[:1], serve.ClassLatency, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	op := p.ops[0]
	var r serve.Response
	if err := json.Unmarshal(op.want, &r); err != nil {
		t.Fatal(err)
	}
	r.BatchSize = 3
	coalesced, _ := json.Marshal(r)
	if !checkExec(op, coalesced) {
		t.Fatal("an answer that differs only in batch_size was rejected")
	}
	r.BatchSize, r.CheckedLanes = 1, r.CheckedLanes+1
	wrong, _ := json.Marshal(r)
	if checkExec(op, wrong) {
		t.Fatal("an answer with a different checked_lanes was accepted")
	}
}

func TestAccountingIdentity(t *testing.T) {
	ph := &phase{offered: 3, samples: []*sample{
		{status: http.StatusOK},
		{status: http.StatusServiceUnavailable},
		{shed: true},
	}}
	attempted, ok, failed, shed, err := accounting(ph)
	if err != nil || attempted != 3 || ok != 1 || failed != 1 || shed != 1 {
		t.Fatalf("accounting = %d %d %d %d %v; want 3 1 1 1 nil", attempted, ok, failed, shed, err)
	}
	// An op the generator offered but never recorded breaks the identity.
	ph.offered = 4
	if _, _, _, _, err := accounting(ph); err == nil {
		t.Fatal("a lost op passed the accounting identity")
	}
	// A mismatched answer is a failure, not a success.
	ph.offered = 3
	ph.samples[0].mismatch = true
	if _, ok, failed, _, _ := accounting(ph); ok != 0 || failed != 2 {
		t.Fatalf("mismatch counted as ok=%d failed=%d; want 0 and 2", ok, failed)
	}
}
