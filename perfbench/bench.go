package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mpu/internal/serve"
)

// workloadDef is one traffic mix. rate is the open-loop Poisson arrival
// rate, frozen against the closed-loop capacity measured on the reference
// host (2 CPUs) when the benchmark was defined: about a third of it for
// exec_dynamic, a tenth for exec_light and a half for pipeline_stream. At
// half capacity the execute workloads' latency varied too much between
// runs to gate.
type workloadDef struct {
	name     string
	rate     float64
	why      string
	stresses string
}

var workloadDefs = []workloadDef{
	{
		name: "exec_dynamic", rate: 100,
		why:      "batch-class execute of data-dependent-loop kernels (gcd, crc32, ibert-sqrt, euclidean) on all four back ends plus gcd in Baseline mode, 128 elements, check on",
		stresses: "every request is one untraceable round run by the interpreter: Machine.Run (internal/machine, internal/vrf) does almost all the work, and the router's p95 hedges duplicate it",
	},
	{
		name: "exec_light", rate: 300,
		why:      "latency-class execute of straight-line kernels (vecadd, relu, vecxor, threshold, sobelx, manhattan) on all four back ends; a quarter submit encoded binaries with sets/dumps",
		stresses: "Machine.Run is microseconds, so HTTP, router forwarding, admission, JSON, PrepareOn, the unreplayed trace recording and the binaries' lint preflight dominate",
	},
	{
		name: "pipeline_stream", rate: 50,
		why:      "persistent /v1/pipelines sessions through the router: two etl.fbp sessions and one editdistance_ring.fbp session (1 advance in 16), 8 records per advance",
		stresses: "stateful advances: Restore, (Rewind, Run) x 8, Snapshot, so internal/snap does most of the work while Run is JIT replay across 6-8 MPUs with the rendezvous barrier",
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// A run builds and warms the deployment at least minSetups times and
// until setupBudget has passed (at most maxSetups times); setup_s is the
// median. An execute deployment is up in milliseconds, so one sample would
// be mostly scheduler noise.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = time.Second
)

// openLimit bounds the execute ops the open loop keeps outstanding; an
// arrival beyond it is shed and counts as failed.
const openLimit = 512

// metric is one reported figure with its sample count.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// outcome is everything one run reports.
type outcome struct {
	attempted, ok, failed, shed int
	mismatched                  int // answered 2xx with the wrong output
	metrics                     []metric
	shares                      map[string]float64 // stress checks, traced runs only
	spans                       []span
}

func (o *outcome) find(name string) *metric {
	for i := range o.metrics {
		if o.metrics[i].Name == name {
			return &o.metrics[i]
		}
	}
	return nil
}

func (o *outcome) add(name string, value float64, unit string, samples int) {
	o.metrics = append(o.metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// liveSession is the client's view of one pipeline session. The mutex is
// held across an advance, so a session never sees two at once, and the
// advance index is claimed under it, so records reach the session in order.
type liveSession struct {
	id   string
	mu   sync.Mutex
	next int
}

type execIssuer struct {
	plan *execPlan
	cl   *client
}

func (e *execIssuer) issue(ctx context.Context, i int, s *sample) {
	op := e.plan.op(i)
	s.hash = op.hash
	body := e.cl.post(ctx, "/v1/execute", op.class, op.body, s)
	if s.ok() && !checkExec(op, body) {
		s.mismatch = true
	}
}

type pipeIssuer struct {
	plan     *pipePlan
	cl       *client
	sessions []*liveSession
}

func (p *pipeIssuer) issue(ctx context.Context, i int, s *sample) {
	p.advance(ctx, p.plan.session(i), s)
}

// advance sends session sess its next batch of records; the answer is kept
// for the ordered output check after the run.
func (p *pipeIssuer) advance(ctx context.Context, sess int, s *sample) {
	ls := p.sessions[sess]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s.sess, s.adv = sess, ls.next
	ls.next++
	body, err := json.Marshal(serve.AdvanceRequest{Records: p.plan.records(sess, s.adv)})
	if err != nil {
		s.err = true
		return
	}
	path := "/v1/pipelines/" + ls.id
	s.hash = spanHash(path, body)
	s.body = p.cl.post(ctx, path, "", body, s)
}

// deployment is one built and warmed cluster with its generator side.
type deployment struct {
	c    *cluster
	cl   *client
	pipe *pipeIssuer // pipeline workload only
	warm []*sample   // each session's warm-up advance
}

func (d *deployment) close() {
	d.cl.close()
	d.c.close()
}

// deploy builds the nodes and router, waits until the router reports both
// nodes ready, and for the pipeline workload creates the sessions and runs
// each one's first advance. Everything it does counts as set-up.
func deploy(ctx context.Context, tr *tracer, pipe *pipePlan, nproc int) (*deployment, error) {
	c, err := startCluster(tr)
	if err != nil {
		return nil, err
	}
	d := &deployment{c: c, cl: newClient(c.routerURL, nproc)}
	if err := c.waitReady(ctx); err != nil {
		d.close()
		return nil, err
	}
	if pipe == nil {
		return d, nil
	}
	d.pipe = &pipeIssuer{plan: pipe, cl: d.cl}
	for s, ss := range pipe.sessions {
		id, err := createSession(ctx, d.cl, ss)
		if err != nil {
			d.close()
			return nil, err
		}
		d.pipe.sessions = append(d.pipe.sessions, &liveSession{id: id})
		smp := &sample{op: -1}
		d.pipe.advance(ctx, s, smp)
		if !smp.ok() {
			d.close()
			return nil, fmt.Errorf("warm-up advance of %s: status %d", ss.name, smp.status)
		}
		d.warm = append(d.warm, smp)
	}
	return d, nil
}

// createSession opens one pipeline session through the router.
func createSession(ctx context.Context, cl *client, ss *sessionSpec) (string, error) {
	body, err := json.Marshal(serve.PipelineRequest{Source: ss.source, Backend: pipelineBackend})
	if err != nil {
		return "", err
	}
	smp := &sample{}
	raw := cl.post(ctx, "/v1/pipelines", "", body, smp)
	if !smp.ok() {
		return "", fmt.Errorf("create %s: status %d", ss.name, smp.status)
	}
	var created serve.PipelineResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		return "", fmt.Errorf("create %s: %w", ss.name, err)
	}
	return created.ID, nil
}

// verifyPipeline replays each session's served advances in order on a
// direct machine and marks every advance whose dumps differ.
func verifyPipeline(pipe *pipePlan, d *deployment, phases ...*phase) error {
	counts := make([]int, len(d.pipe.sessions))
	for s, ls := range d.pipe.sessions {
		counts[s] = ls.next
	}
	want, err := pipe.expectSessions(counts)
	if err != nil {
		return err
	}
	for _, smp := range d.warm {
		if !checkAdvance(smp.body, want[smp.sess][smp.adv]) {
			return fmt.Errorf("warm-up advance of %s answered the wrong records", pipe.sessions[smp.sess].name)
		}
	}
	for _, ph := range phases {
		for _, smp := range ph.samples {
			if smp.ok() && !checkAdvance(smp.body, want[smp.sess][smp.adv]) {
				smp.mismatch = true
			}
			smp.body = nil
		}
	}
	return nil
}

// benchmark runs one workload for one seed. Untraced it measures the
// end-to-end metrics; traced it measures the per-layer ones.
func benchmark(w *workloadDef, seed int64, seconds int, traced bool, root string) (*outcome, error) {
	ctx := context.Background()
	nproc := runtime.NumCPU()
	var (
		exec *execPlan
		pipe *pipePlan
		err  error
	)
	switch w.name {
	case "exec_dynamic":
		exec, err = buildExecPlan(seed, dynamicCombos(), serve.ClassBatch, 16, 0)
	case "exec_light":
		exec, err = buildExecPlan(seed, lightCombos(), serve.ClassLatency, 6, 2)
	case "pipeline_stream":
		pipe, err = buildPipePlan(seed, root)
	}
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var d *deployment
	var setups []float64
	for begin := nowNS(); len(setups) < minSetups || (len(setups) < maxSetups && nowNS()-begin < int64(setupBudget)); {
		if d != nil {
			d.close()
		}
		t0 := nowNS()
		if d, err = deploy(ctx, tr, pipe, nproc); err != nil {
			return nil, err
		}
		setups = append(setups, float64(nowNS()-t0)/1e9)
	}
	defer d.close()

	var is issuer
	var disp func() dispatcher
	if exec != nil {
		is = &execIssuer{plan: exec, cl: d.cl}
		disp = func() dispatcher { return newPoolDispatcher(is, openLimit) }
	} else {
		is = d.pipe
		disp = func() dispatcher {
			return newQueueDispatcher(ctx, is, len(pipe.sessions), pipe.session)
		}
	}
	total := time.Duration(seconds) * time.Second
	arrivals := func(share float64) int { return int(math.Round(w.rate * share * total.Seconds())) }
	openSeed := int64(mix(uint64(seed), 0xa11)) // the arrival schedule

	o := &outcome{}
	if !traced {
		closed := closedLoop(ctx, is, nproc, 0, total/5)
		open := openLoop(ctx, disp(), w.rate, arrivals(0.8), openSeed, closed.offered)
		if pipe != nil {
			if err := verifyPipeline(pipe, d, closed, open); err != nil {
				return nil, err
			}
		}
		if o.attempted, o.ok, o.failed, o.shed, err = accounting(closed, open); err != nil {
			return nil, err
		}
		o.mismatched = mismatches(closed, open)
		o.add("setup_s", median(setups), "s", len(setups))
		cok, _, _ := closed.counts()
		o.add("capacity_ops_s", float64(cok)/(float64(closed.end-closed.start)/1e9), "ops/s", cok)
		// Samples are recorded as answers arrive; the p99 windows follow
		// the arrival schedule.
		sort.Slice(open.samples, func(i, j int) bool { return open.samples[i].due < open.samples[j].due })
		var lat []float64
		for _, s := range open.samples {
			lat = append(lat, s.latencyMS())
		}
		p50, err := percentile(lat, 0.50)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(lat, 0.90)
		if err != nil {
			return nil, err
		}
		p99, err := windowedP99(lat)
		if err != nil {
			return nil, fmt.Errorf("latency_p99_ms: %w (raise --seconds)", err)
		}
		o.add("latency_p50_ms", p50, "ms", len(lat))
		o.add("latency_p90_ms", p90, "ms", len(lat))
		o.add("latency_p99_ms", p99, "ms", len(lat))
		o.add("ok_ratio", float64(o.ok)/float64(o.attempted), "ratio", o.attempted)
		o.add("error_ratio", float64(o.failed+o.shed)/float64(o.attempted), "ratio", o.attempted)
		o.add("max_rss_mb", maxRSSMB(), "MiB", 1)
		return o, nil
	}

	// Traced run: untraced closed loop, untraced open loop (generator
	// lateness), traced closed loop (spans), then the direct phase.
	h0, w0, r0 := d.c.rt.Hedging()
	names := []string{"mpud_requests_total", "mpud_batches_total"}
	m0, err := d.c.scrape(ctx, names...)
	if err != nil {
		return nil, err
	}
	plain := closedLoop(ctx, is, nproc, 0, total/5)
	open := openLoop(ctx, disp(), w.rate, arrivals(0.3), openSeed, plain.offered)
	tr.on.Store(true)
	traced1 := closedLoop(ctx, is, nproc, plain.offered+open.offered, total/5)
	tr.on.Store(false)
	o.spans = tr.take()
	h1, w1, r1 := d.c.rt.Hedging()
	m1, err := d.c.scrape(ctx, names...)
	if err != nil {
		return nil, err
	}
	if pipe != nil {
		if err := verifyPipeline(pipe, d, plain, open, traced1); err != nil {
			return nil, err
		}
	}
	if o.attempted, o.ok, o.failed, o.shed, err = accounting(plain, open, traced1); err != nil {
		return nil, err
	}
	o.mismatched = mismatches(plain, open, traced1)

	var direct []layerTimes
	var compileNS []int64
	if exec != nil {
		direct, err = directExec(exec)
	} else {
		compileNS, direct, err = directPipeline(pipe, 2*ringEvery)
	}
	if err != nil {
		return nil, err
	}
	layerMetrics(o, layerInputs{
		traced: traced1, plain: plain, open: open, spans: o.spans, direct: direct, compileNS: compileNS,
		exec: exec, hedges: float64(h1 - h0), wins: float64(w1 - w0), retries: float64(r1 - r0),
		requests: m1["mpud_requests_total"] - m0["mpud_requests_total"],
		batches:  m1["mpud_batches_total"] - m0["mpud_batches_total"],
	})
	return o, nil
}

func mismatches(phases ...*phase) int {
	n := 0
	for _, p := range phases {
		for _, s := range p.samples {
			if s.mismatch {
				n++
			}
		}
	}
	return n
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func statusOK(code int) bool { return code >= 200 && code < 300 }
