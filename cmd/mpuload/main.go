// Command mpuload is a load generator for mpud and mpurouter. By default it
// runs closed-loop: N concurrent clients each issue a request, wait for the
// response, and immediately issue the next, cycling through a workload mix.
// With -rate it runs open-loop instead: request arrivals follow a Poisson
// process at the given aggregate rate regardless of how fast responses come
// back, the honest way to measure tail latency under offered load. It
// reports throughput, latency percentiles, and the admission outcome
// histogram, and writes the study as JSON.
//
// Usage:
//
//	mpuload [-url http://host:port] [-c 64] [-duration 10s]
//	        [-pools racer:mpu:2,...] [-mix gcd:racer,relu:mimdram,...]
//	        [-elements 128] [-rate 200] [-tenants 4] [-drain] [-strict]
//	        [-nodes 3] [-hedge=false] [-slow 1:25ms] [-out BENCH.json]
//	        [-classes latency=2,batch=20] [-nopreempt] [-max-parked 8]
//	mpuload -pipeline file.fbp [-pipeline-backend racer] [-sessions 2]
//	        [-records-per-request 1] [-rate 50] [-duration 10s]
//	mpuload -cluster-bench [-out BENCH_pr8.json]
//	mpuload -qos-bench [-out BENCH_pr9.json]
//	mpuload -pipeline-bench [-out BENCH_pr10.json]
//
// -pipeline streams records through persistent pipeline sessions compiled
// from the .fbp graph (one create, then one advance request per record
// batch), closed-loop per session or open-loop with -rate, and reports
// per-record latency percentiles plus the recompilation account: cold
// counters cover each session's first request, warm counters everything
// after — steady state is warm == zero. -pipeline-bench is the PR 10
// acceptance suite: >= 1000 records across separate requests with zero warm
// recompilation, and a latency-class burst absorbed without refusals while
// the session streams.
//
// -classes runs a mixed-QoS open-loop study: each entry is an independent
// Poisson arrival stream at the given rate (requests/sec) tagged with that
// X-QoS class, and the study reports per-class latency percentiles and shed
// counts. With -strict the run exits non-zero if any class shed arrivals
// (the generator could not keep its offered load honest). -nopreempt and
// -max-parked forward to the self-hosted daemon's QoS scheduler.
//
// With no -url, mpuload self-hosts an in-process serve.Server on a loopback
// port — the standard way to run the study without a separate daemon. With
// -nodes N it self-hosts an N-node cluster instead: N serve.Servers fronted
// by an in-process mpurouter tier, so multi-node studies need no external
// processes. -slow idx:dur (idx "all" for every node) adds an artificial
// per-batch delay to a node, the slow-node fixture for hedging studies.
//
// -drain delivers a real SIGTERM to the process at half duration: the
// drained server (node 0 in cluster mode) stops admitting while admitted
// requests run to completion and, in cluster mode, the router re-routes
// around it. The study records how many in-flight requests the drain
// dropped; the acceptance contract is zero.
//
// On 503/429 the closed loop honors the Retry-After header before retrying
// instead of hammering a full admission queue.
//
// -cluster-bench runs the PR 8 acceptance suite: 1→2→4-node throughput
// scaling, p99 with and without hedging under one slow node, and a rolling
// node drain under open-loop load, written as one JSON study.
//
// -qos-bench runs the PR 9 acceptance suite: one resident heavy batch job
// on a single-machine pool with open-loop latency-class arrivals, measured
// with ensemble-boundary preemption enabled and disabled.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpu/internal/exp"
	"mpu/internal/router"
	"mpu/internal/serve"
)

type mixEntry struct {
	workload string
	backend  string
	mode     string
}

// study is the per-run JSON schema (BENCH_pr5.json and the components of
// BENCH_pr8.json).
type study struct {
	Config struct {
		Clients  int      `json:"clients"`
		Duration string   `json:"duration"`
		Pools    string   `json:"pools"`
		Mix      []string `json:"mix"`
		Elements int      `json:"elements"`
		Drain    bool     `json:"drain"`
		Nodes    int      `json:"nodes,omitempty"`
		RateHz   float64  `json:"rate_hz,omitempty"`
		Classes  string   `json:"classes,omitempty"`
		Tenants  int      `json:"tenants,omitempty"`
		Hedge    bool     `json:"hedge,omitempty"`
		Slow     string   `json:"slow,omitempty"`
	} `json:"config"`
	Totals struct {
		Requests   uint64            `json:"requests"`
		OK         uint64            `json:"ok"`
		Refused    uint64            `json:"refused_503"`
		Refused429 uint64            `json:"refused_429,omitempty"`
		Dropped    uint64            `json:"dropped"`
		Shed       uint64            `json:"shed_open_loop,omitempty"`
		ByStatus   map[string]uint64 `json:"by_status"`
	} `json:"totals"`
	Throughput struct {
		OKPerSec float64 `json:"ok_per_sec"`
	} `json:"throughput"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Classes    map[string]*classStudy `json:"classes,omitempty"`
	Cluster    *clusterStats          `json:"cluster,omitempty"`
	DrainStudy *drainStudy            `json:"drain_study,omitempty"`
}

// classStudy is the per-QoS-class slice of a mixed -classes run. Shed counts
// arrivals the generator had to skip for that class (outstanding-set full);
// a non-zero shed means the offered per-class rate was not honestly applied.
type classStudy struct {
	RateHz    float64 `json:"rate_hz"`
	Requests  uint64  `json:"requests"`
	OK        uint64  `json:"ok"`
	Shed      uint64  `json:"shed,omitempty"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
}

// classRate is one parsed -classes entry; order follows the flag so the
// arrival-stream mixing is deterministic.
type classRate struct {
	class string
	rate  float64
}

// parseClasses parses "latency=2,batch=20" into per-class open-loop Poisson
// rates, validating each class name against the daemon's QoS vocabulary.
func parseClasses(s string) ([]classRate, error) {
	var out []classRate
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rateStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("classes entry %q: want class=rate", part)
		}
		class, err := serve.ParseClass(name)
		if err != nil {
			return nil, fmt.Errorf("classes entry %q: %v", part, err)
		}
		if seen[class] {
			return nil, fmt.Errorf("classes entry %q: class %s repeated", part, class)
		}
		seen[class] = true
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("classes entry %q: rate must be a positive requests/sec value", part)
		}
		out = append(out, classRate{class: class, rate: rate})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty classes spec %q", s)
	}
	return out, nil
}

// clusterStats is the router-side accounting for a cluster-mode run; the
// hedge rate is reported honestly alongside whatever p99 it bought.
type clusterStats struct {
	Nodes     int     `json:"nodes"`
	Hedges    uint64  `json:"hedges"`
	HedgeWins uint64  `json:"hedge_wins"`
	Retries   uint64  `json:"retries"`
	HedgeRate float64 `json:"hedge_rate"`
}

type drainStudy struct {
	AtMS              float64 `json:"at_ms"`
	InflightAtDrain   int64   `json:"inflight_at_drain"`
	InflightCompleted int64   `json:"inflight_completed"`
	InflightDropped   int64   `json:"inflight_dropped"`
	OKAfterDrain      uint64  `json:"ok_after_drain"`
	RefusedAfterDrain uint64  `json:"refused_after_drain"`
}

// opts collects one run's knobs.
type opts struct {
	url      string
	clients  int
	duration time.Duration
	pools    string
	mixSpec  string
	elements int
	queue    int
	window   time.Duration
	drain    bool
	strict   bool
	seeds    int // distinct seed values cycled per request (1 maximizes coalescing)
	nodes    int // 0 = single self-host without router; >=1 = routed cluster
	rate     float64
	tenants  int
	hedge    bool
	hedgeMax time.Duration
	slowSpec string

	classesSpec string // per-class open-loop rates ("latency=2,batch=20")
	maxElements int    // self-hosted per-request element cap (0 = serve default)
	nopreempt   bool   // self-hosted: disable ensemble-boundary preemption
	maxParked   int    // self-hosted: parking-lot bound per pool

	pipeBackend string // -pipeline: back end for the sessions
	sessions    int    // -pipeline: concurrent pipeline sessions
	recordsPer  int    // -pipeline: records per advance request
}

func main() {
	var o opts
	flag.StringVar(&o.url, "url", "", "target base URL; empty self-hosts an in-process server (or cluster with -nodes)")
	flag.IntVar(&o.clients, "c", 64, "concurrent closed-loop clients (ignored with -rate)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "study length")
	flag.StringVar(&o.pools, "pools", "racer:mpu:2,mimdram:mpu:2,dcache:mpu:2,simdram:mpu:2",
		"self-hosted pools per node: backend:mode[:size],...")
	flag.StringVar(&o.mixSpec, "mix", "gcd:racer,relu:mimdram,vecadd:dcache,vecxor:simdram",
		"request mix: workload:backend[:mode],... cycled per client")
	flag.IntVar(&o.elements, "elements", 128, "elements per request")
	flag.IntVar(&o.queue, "queue", 64, "self-hosted admission queue depth per pool")
	flag.DurationVar(&o.window, "window", 2*time.Millisecond, "self-hosted batch-class coalescing window (overlaps execution; answers wait for it; negative seals at dequeue)")
	flag.BoolVar(&o.drain, "drain", false, "SIGTERM the self-hosted server (node 0 in cluster mode) at half duration")
	flag.BoolVar(&o.strict, "strict", false, "exit non-zero on any dropped request or transport error")
	flag.IntVar(&o.seeds, "seeds", 8, "distinct seed values cycled across requests (higher defeats batch coalescing)")
	flag.IntVar(&o.nodes, "nodes", 0, "self-host an N-node cluster behind an in-process router (0 = plain single server)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop Poisson arrival rate, requests/sec (0 = closed loop)")
	flag.IntVar(&o.tenants, "tenants", 0, "spread requests across N tenant names via X-Tenant")
	flag.BoolVar(&o.hedge, "hedge", true, "cluster mode: enable hedged retries in the router")
	flag.DurationVar(&o.hedgeMax, "hedge-max", 250*time.Millisecond, "cluster mode: hedge trigger delay ceiling")
	flag.StringVar(&o.slowSpec, "slow", "", "cluster mode: artificial per-batch node delay, idx:dur[,idx:dur] (idx 'all' = every node)")
	flag.StringVar(&o.classesSpec, "classes", "", "mixed-QoS open loop: per-class Poisson rates, class=hz[,class=hz]")
	flag.IntVar(&o.maxElements, "max-elements", 0, "self-hosted per-request element cap (0 = daemon default)")
	flag.BoolVar(&o.nopreempt, "nopreempt", false, "self-hosted: disable ensemble-boundary preemption")
	flag.IntVar(&o.maxParked, "max-parked", 8, "self-hosted: parking-lot bound per pool for preempted-job snapshots")
	bench := flag.Bool("cluster-bench", false, "run the scaling + hedging + rolling-drain acceptance suite")
	qosb := flag.Bool("qos-bench", false, "run the QoS preemption acceptance suite (latency tails vs batch throughput)")
	pipePath := flag.String("pipeline", "", "stream records through persistent .fbp pipeline sessions instead of /v1/execute")
	flag.StringVar(&o.pipeBackend, "pipeline-backend", "racer", "-pipeline: back end for the sessions")
	flag.IntVar(&o.sessions, "sessions", 2, "-pipeline: concurrent pipeline sessions")
	flag.IntVar(&o.recordsPer, "records-per-request", 1, "-pipeline: records batched into each advance request")
	pipeBench := flag.Bool("pipeline-bench", false, "run the persistent-pipeline acceptance suite (steady-state recompilation + burst isolation)")
	out := flag.String("out", "", "write the study JSON to this path")
	flag.Parse()

	var err error
	switch {
	case *bench:
		err = clusterBench(*out)
	case *qosb:
		err = qosBench(*out)
	case *pipeBench:
		err = pipelineBench(*out)
	case *pipePath != "":
		var s *pipelineStudy
		s, err = runPipelineStudy(o, *pipePath)
		if err == nil && *out != "" {
			if err = exp.WriteJSON(*out, s); err == nil {
				fmt.Printf("mpuload: wrote %s\n", *out)
			}
		}
	default:
		var s *study
		s, err = runStudy(o)
		if err == nil && *out != "" {
			if err = exp.WriteJSON(*out, s); err == nil {
				fmt.Printf("mpuload: wrote %s\n", *out)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpuload: %v\n", err)
		os.Exit(1)
	}
}

func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) < 2 || len(f) > 3 {
			return nil, fmt.Errorf("mix entry %q: want workload:backend[:mode]", part)
		}
		e := mixEntry{workload: f[0], backend: f[1], mode: "mpu"}
		if len(f) == 3 {
			e.mode = f[2]
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return out, nil
}

// parseSlow parses "idx:dur[,idx:dur]"; index -1 means every node.
func parseSlow(s string) (map[int]time.Duration, error) {
	out := map[int]time.Duration{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idxStr, durStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("slow entry %q: want idx:duration", part)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("slow entry %q: %v", part, err)
		}
		if idxStr == "all" {
			out[-1] = d
			continue
		}
		i, err := strconv.Atoi(idxStr)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("slow entry %q: bad node index", part)
		}
		out[i] = d
	}
	return out, nil
}

func runStudy(o opts) (*study, error) {
	mix, err := parseMix(o.mixSpec)
	if err != nil {
		return nil, err
	}
	slow, err := parseSlow(o.slowSpec)
	if err != nil {
		return nil, err
	}
	if o.drain && o.url != "" {
		return nil, fmt.Errorf("-drain requires a self-hosted target (no -url)")
	}
	if o.url != "" && o.nodes > 0 {
		return nil, fmt.Errorf("-nodes and -url are mutually exclusive")
	}
	var classes []classRate
	if o.classesSpec != "" {
		if o.rate > 0 {
			return nil, fmt.Errorf("-classes carries its own per-class rates; drop -rate")
		}
		if classes, err = parseClasses(o.classesSpec); err != nil {
			return nil, err
		}
		for _, c := range classes {
			o.rate += c.rate
		}
	}

	url := o.url
	var shutdown func() error
	var rt *router.Router
	if url == "" {
		if o.nodes > 0 {
			url, rt, shutdown, err = selfHostCluster(o, slow)
		} else {
			url, shutdown, err = selfHost(o, slow[-1]+slow[0])
		}
		if err != nil {
			return nil, err
		}
	}

	// perClass aggregates the -classes slices; guarded by mu like the totals.
	type classAcc struct {
		requests  uint64
		ok        uint64
		shed      uint64
		latencies []float64
	}
	perClass := map[string]*classAcc{}
	for _, c := range classes {
		perClass[c.class] = &classAcc{}
	}

	var (
		mu        sync.Mutex
		latencies []float64 // seconds, OK requests only
		byStatus  = map[string]uint64{}
		requests  uint64
		ok        uint64
		refused   uint64
		saturated uint64
		dropped   uint64
		shed      uint64

		drainedAt   atomic.Int64 // unix nanos, 0 = not drained
		inflight    atomic.Int64
		inflightAtD atomic.Int64
		okAfter     atomic.Uint64
		refAfter    atomic.Uint64
		straddleOK  atomic.Int64 // requests in flight at drain that completed OK
		straddleBad atomic.Int64 // ... that were dropped
	)

	// A dedicated transport per run: studies back to back (cluster-bench)
	// must not share idle connections to a previous run's dead cluster.
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: 2 * time.Minute, Transport: transport}
	stop := make(chan struct{})
	start := time.Now()

	sig := make(chan os.Signal, 1)
	if o.drain {
		signal.Notify(sig, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			time.Sleep(o.duration / 2)
			p, _ := os.FindProcess(os.Getpid())
			p.Signal(syscall.SIGTERM)
		}()
	}
	go func() {
		if o.drain {
			<-sig
			// Record the in-flight population the drain must not drop, then
			// stop admission on the drained node. The HTTP layer stays up so
			// refused requests get clean 503s and admitted ones complete; in
			// cluster mode the router re-routes around the node.
			inflightAtD.Store(inflight.Load())
			drainedAt.Store(time.Now().UnixNano())
			drainSelfHosted()
		}
		time.Sleep(time.Until(start.Add(o.duration)))
		close(stop)
	}()

	// issue runs one request and does all outcome accounting; it returns the
	// status and Retry-After hint so the closed loop can back off.
	seeds := o.seeds
	if seeds <= 0 {
		seeds = 8
	}
	issue := func(i int, class string) (int, string, error) {
		e := mix[i%len(mix)]
		body, _ := json.Marshal(map[string]any{
			"workload": e.workload, "backend": e.backend, "mode": e.mode,
			"elements": o.elements, "seed": int64(i % seeds), "check": true,
		})
		tenant := ""
		if o.tenants > 0 {
			tenant = fmt.Sprintf("tenant%d", i%o.tenants)
		}
		preDrain := drainedAt.Load() == 0
		inflight.Add(1)
		t0 := time.Now()
		status, retryAfter, err := post(client, url+"/v1/execute", tenant, class, body)
		sec := time.Since(t0).Seconds()
		inflight.Add(-1)
		straddled := preDrain && drainedAt.Load() != 0

		mu.Lock()
		requests++
		cs := perClass[class]
		if cs != nil {
			cs.requests++
		}
		if err != nil {
			byStatus["error"]++
			dropped++
		} else {
			byStatus[fmt.Sprint(status)]++
			switch status {
			case http.StatusOK:
				ok++
				latencies = append(latencies, sec)
				if cs != nil {
					cs.ok++
					cs.latencies = append(cs.latencies, sec)
				}
			case http.StatusServiceUnavailable:
				refused++
			case http.StatusTooManyRequests:
				saturated++
			default:
				dropped++
			}
		}
		mu.Unlock()

		refusal := status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
		if drainedAt.Load() != 0 && !straddled {
			if status == http.StatusOK {
				okAfter.Add(1)
			} else if refusal {
				refAfter.Add(1)
			}
		}
		if straddled {
			if err == nil && status == http.StatusOK {
				straddleOK.Add(1)
			} else if err != nil || !refusal {
				straddleBad.Add(1)
			}
		}
		return status, retryAfter, err
	}

	var wg sync.WaitGroup
	if o.rate > 0 {
		// Open loop: Poisson arrivals at the configured aggregate rate; each
		// arrival is an independent one-shot request, never a retry. A
		// bounded outstanding set keeps an overloaded target from exploding
		// the generator; skipped arrivals are counted as shed, not dropped.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			sem := make(chan struct{}, 4096)
			var owg sync.WaitGroup
			defer owg.Wait()
			next := time.Now()
			for i := 0; ; i++ {
				next = next.Add(time.Duration(rng.ExpFloat64() / o.rate * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				// With -classes the merged stream is thinned probabilistically
				// by rate share — equivalent to independent per-class Poisson
				// processes at each configured rate.
				class := ""
				if len(classes) > 0 {
					pick := rng.Float64() * o.rate
					for _, c := range classes {
						if pick -= c.rate; pick < 0 || c.class == classes[len(classes)-1].class {
							class = c.class
							break
						}
					}
				}
				select {
				case sem <- struct{}{}:
					owg.Add(1)
					go func(i int, class string) {
						defer owg.Done()
						defer func() { <-sem }()
						issue(i, class)
					}(i, class)
				default:
					mu.Lock()
					shed++
					if cs := perClass[class]; cs != nil {
						cs.shed++
					}
					mu.Unlock()
				}
			}
		}()
	} else {
		for c := 0; c < o.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Stride by the client count so no two clients ever issue the
				// same (workload, seed) pair concurrently — overlapping
				// sequences would let the server coalesce what are meant to
				// be independent requests.
				for i := c; ; i += o.clients {
					select {
					case <-stop:
						return
					default:
					}
					status, retryAfter, err := issue(i, "")
					if err == nil && (status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests) {
						// Honor backpressure: wait out the server's own
						// Retry-After hint instead of hammering a full (or
						// draining) admission queue.
						select {
						case <-stop:
							return
						case <-time.After(retryDelay(retryAfter)):
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var s study
	s.Config.Clients = o.clients
	if o.rate > 0 {
		s.Config.Clients = 0
	}
	s.Config.Duration = o.duration.String()
	s.Config.Pools = o.pools
	for _, e := range mix {
		s.Config.Mix = append(s.Config.Mix, e.workload+":"+e.backend+":"+e.mode)
	}
	s.Config.Elements = o.elements
	s.Config.Drain = o.drain
	s.Config.Nodes = o.nodes
	s.Config.RateHz = o.rate
	s.Config.Classes = o.classesSpec
	s.Config.Tenants = o.tenants
	s.Config.Hedge = o.nodes > 0 && o.hedge
	s.Config.Slow = o.slowSpec
	s.Totals.Requests = requests
	s.Totals.OK = ok
	s.Totals.Refused = refused
	s.Totals.Refused429 = saturated
	s.Totals.Dropped = dropped
	s.Totals.Shed = shed
	s.Totals.ByStatus = byStatus
	s.Throughput.OKPerSec = float64(ok) / elapsed.Seconds()
	pct := func(p float64) float64 { return exp.Percentile(latencies, p) * 1e3 }
	s.LatencyMS.P50 = pct(0.50)
	s.LatencyMS.P90 = pct(0.90)
	s.LatencyMS.P99 = pct(0.99)
	s.LatencyMS.Max = pct(1.0)
	if len(classes) > 0 {
		s.Classes = map[string]*classStudy{}
		for _, c := range classes {
			acc := perClass[c.class]
			cs := &classStudy{RateHz: c.rate, Requests: acc.requests, OK: acc.ok, Shed: acc.shed}
			cpct := func(p float64) float64 { return exp.Percentile(acc.latencies, p) * 1e3 }
			cs.LatencyMS.P50 = cpct(0.50)
			cs.LatencyMS.P90 = cpct(0.90)
			cs.LatencyMS.P99 = cpct(0.99)
			cs.LatencyMS.Max = cpct(1.0)
			s.Classes[c.class] = cs
		}
	}
	if rt != nil {
		hedges, wins, retries := rt.Hedging()
		cs := &clusterStats{Nodes: o.nodes, Hedges: hedges, HedgeWins: wins, Retries: retries}
		if requests > 0 {
			cs.HedgeRate = float64(hedges) / float64(requests)
		}
		s.Cluster = cs
	}
	if o.drain {
		s.DrainStudy = &drainStudy{
			AtMS:              float64(drainedAt.Load()-start.UnixNano()) / 1e6,
			InflightAtDrain:   inflightAtD.Load(),
			InflightCompleted: straddleOK.Load(),
			InflightDropped:   straddleBad.Load(),
			OKAfterDrain:      okAfter.Load(),
			RefusedAfterDrain: refAfter.Load(),
		}
	}

	if shutdown != nil {
		if err := shutdown(); err != nil {
			return nil, err
		}
	}

	fmt.Printf("mpuload: %s: %d requests, %d ok (%.1f/s), %d refused, %d saturated, %d dropped, %d shed\n",
		elapsed.Round(time.Millisecond), requests, ok, s.Throughput.OKPerSec, refused, saturated, dropped, shed)
	fmt.Printf("mpuload: latency ms p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		s.LatencyMS.P50, s.LatencyMS.P90, s.LatencyMS.P99, s.LatencyMS.Max)
	for _, c := range classes {
		cs := s.Classes[c.class]
		fmt.Printf("mpuload: class %-8s %.1f/s offered: %d ok, %d shed; ms p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
			c.class, c.rate, cs.OK, cs.Shed, cs.LatencyMS.P50, cs.LatencyMS.P90, cs.LatencyMS.P99, cs.LatencyMS.Max)
	}
	if s.Cluster != nil {
		fmt.Printf("mpuload: cluster %d nodes: %d hedges (%d won, rate %.3f), %d retries\n",
			s.Cluster.Nodes, s.Cluster.Hedges, s.Cluster.HedgeWins, s.Cluster.HedgeRate, s.Cluster.Retries)
	}
	if s.DrainStudy != nil {
		d := s.DrainStudy
		fmt.Printf("mpuload: drain at %.0fms: %d in flight, %d completed, %d dropped; after: %d ok, %d refused\n",
			d.AtMS, d.InflightAtDrain, d.InflightCompleted, d.InflightDropped, d.OKAfterDrain, d.RefusedAfterDrain)
		if d.InflightDropped > 0 || dropped > 0 {
			return nil, fmt.Errorf("drain dropped %d in-flight requests (%d dropped total)", d.InflightDropped, dropped)
		}
	}
	if o.strict && (dropped > 0 || byStatus["error"] > 0) {
		return nil, fmt.Errorf("strict: %d dropped, %d transport errors", dropped, byStatus["error"])
	}
	if o.strict {
		// A shed arrival means the generator silently under-offered that
		// class, so its percentiles are not trustworthy — per-class runs
		// treat any shed as a failed study.
		for _, c := range classes {
			if n := perClass[c.class].shed; n > 0 {
				return nil, fmt.Errorf("strict: class %s shed %d arrivals", c.class, n)
			}
		}
	}
	return &s, nil
}

// retryDelay turns a Retry-After header into a backoff, bounded so a
// misbehaving hint cannot stall the loop.
func retryDelay(retryAfter string) time.Duration {
	d := 100 * time.Millisecond
	if sec, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && sec > 0 {
		d = time.Duration(sec) * time.Second
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func post(client *http.Client, url, tenant, qos string, body []byte) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if qos != "" {
		req.Header.Set("X-QoS", qos)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// Self-hosted server plumbing. drainSelfHosted stops admission only (on
// node 0 in cluster mode); the HTTP layer and pools shut down in the
// function returned by selfHost/selfHostCluster.
var selfHosted *serve.Server

func drainSelfHosted() {
	if selfHosted != nil {
		selfHosted.Drain()
	}
}

// hostServe puts a serve.Server behind a loopback http.Server with the
// repolint-mandated timeouts and returns its base URL and closer.
func hostServe(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
	}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs.Close, nil
}

func selfHost(o opts, debugDelay time.Duration) (string, func() error, error) {
	specs, err := serve.ParsePoolSpecs(o.pools)
	if err != nil {
		return "", nil, err
	}
	srv, err := serve.New(serve.Config{
		Pools:       specs,
		QueueDepth:  o.queue,
		BatchWindow: o.window,
		MaxElements: o.maxElements,
		NoPreempt:   o.nopreempt,
		MaxParked:   o.maxParked,
		DebugDelay:  debugDelay,
		Logs:        nil,
	})
	if err != nil {
		return "", nil, err
	}
	selfHosted = srv
	url, closeHTTP, err := hostServe(srv)
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	shutdown := func() error {
		srv.Drain()
		if err := closeHTTP(); err != nil {
			return err
		}
		srv.Close()
		return nil
	}
	return url, shutdown, nil
}

// selfHostCluster builds an N-node in-process cluster — N serve.Servers on
// loopback ports behind one router — and returns the router's base URL, the
// router handle (for hedge accounting), and a shutdown closure. Node 0 is
// registered as the drain target.
func selfHostCluster(o opts, slow map[int]time.Duration) (string, *router.Router, func() error, error) {
	specs, err := serve.ParsePoolSpecs(o.pools)
	if err != nil {
		return "", nil, nil, err
	}
	var (
		servers  []*serve.Server
		closers  []func() error
		nodeURLs []string
		closeAll = func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
			for _, s := range servers {
				s.Drain()
				s.Close()
			}
		}
	)
	for i := 0; i < o.nodes; i++ {
		delay := slow[i]
		if d, ok := slow[-1]; ok {
			delay += d
		}
		srv, err := serve.New(serve.Config{
			Pools:       specs,
			QueueDepth:  o.queue,
			BatchWindow: o.window,
			MaxElements: o.maxElements,
			NoPreempt:   o.nopreempt,
			MaxParked:   o.maxParked,
			NodeID:      fmt.Sprintf("node%d", i),
			DebugDelay:  delay,
			Logs:        nil,
		})
		if err != nil {
			closeAll()
			return "", nil, nil, err
		}
		servers = append(servers, srv)
		url, closeHTTP, err := hostServe(srv)
		if err != nil {
			closeAll()
			return "", nil, nil, err
		}
		closers = append(closers, closeHTTP)
		nodeURLs = append(nodeURLs, url)
	}
	selfHosted = servers[0]

	rt, err := router.New(router.Config{
		Nodes:          nodeURLs,
		Hedge:          o.hedge,
		HedgeMax:       o.hedgeMax,
		ScrapeInterval: 50 * time.Millisecond,
		Logs:           nil,
	})
	if err != nil {
		closeAll()
		return "", nil, nil, err
	}
	url, closeRouterHTTP, err := hostServe(rt)
	if err != nil {
		rt.Close()
		closeAll()
		return "", nil, nil, err
	}
	shutdown := func() error {
		if err := closeRouterHTTP(); err != nil {
			return err
		}
		rt.Close()
		closeAll()
		return nil
	}
	return url, rt, shutdown, nil
}

// clusterBench is the PR 8 acceptance suite. Every node carries a 4ms
// emulated device service time per batch (DebugDelay) so throughput is
// device-bound rather than host-CPU-bound, the regime the scaling claim is
// about; the knob and its value are recorded in the study.
func clusterBench(out string) error {
	// The emulated service delay must be large enough that even the 4-node
	// cluster's aggregate capacity (nodes × machines / delay) stays below
	// what the host CPU can push through the in-process HTTP stack —
	// otherwise every configuration saturates the host and scaling flattens.
	const (
		serviceDelay = 6 * time.Millisecond
		scalePools   = "racer:mpu:1"
		hedgePools   = "racer:mpu:2"
		scaleMix     = "gcd:racer,relu:racer,vecadd:racer,vecxor:racer,vecand:racer,vecsub:racer," +
			"vecmul:racer,abs:racer,clamp:racer,sign:racer,threshold:racer,mac:racer," +
			"conv1d3:racer,jacobi1d:racer,manhattan:racer,euclidean:racer"
		hedgeMix = scaleMix
	)
	type scalePoint struct {
		Nodes     int     `json:"nodes"`
		OKPerSec  float64 `json:"ok_per_sec"`
		P99MS     float64 `json:"p99_ms"`
		SpeedupV1 float64 `json:"speedup_vs_1_node"`
	}
	type hedgeArm struct {
		OK        uint64  `json:"ok"`
		P50MS     float64 `json:"p50_ms"`
		P99MS     float64 `json:"p99_ms"`
		Hedges    uint64  `json:"hedges"`
		HedgeWins uint64  `json:"hedge_wins"`
		HedgeRate float64 `json:"hedge_rate"`
	}
	var bench struct {
		Config struct {
			Pools          string  `json:"pools_per_node"`
			Mix            string  `json:"mix"`
			Elements       int     `json:"elements"`
			ServiceDelayMS float64 `json:"emulated_service_delay_ms"`
		} `json:"config"`
		Scaling []scalePoint `json:"scaling"`
		Hedging struct {
			SlowNodeDelayMS float64  `json:"slow_node_delay_ms"`
			HedgeMaxMS      float64  `json:"hedge_max_ms"`
			RateHz          float64  `json:"rate_hz"`
			Baseline        hedgeArm `json:"baseline"`
			Hedged          hedgeArm `json:"hedged"`
			P99ReductionPct float64  `json:"p99_reduction_pct"`
		} `json:"hedging"`
		RollingDrain struct {
			Nodes    int     `json:"nodes"`
			RateHz   float64 `json:"rate_hz"`
			Requests uint64  `json:"requests"`
			OK       uint64  `json:"ok"`
			Refused  uint64  `json:"refused"`
			Dropped  uint64  `json:"dropped"`
			Balanced bool    `json:"accounting_balanced"`
		} `json:"rolling_drain"`
	}
	// settle lets one arm's cluster finish tearing down (pool goroutines,
	// connection close) before the next arm's latency measurements start.
	settle := func() { time.Sleep(time.Second) }
	base := opts{
		clients:  96,
		duration: 3 * time.Second,
		pools:    scalePools,
		mixSpec:  scaleMix,
		elements: 64,
		queue:    128,
		window:   2 * time.Millisecond,
		hedge:    true,
		hedgeMax: 250 * time.Millisecond,
	}
	bench.Config.Pools = scalePools
	bench.Config.Mix = scaleMix
	bench.Config.Elements = base.elements
	bench.Config.ServiceDelayMS = float64(serviceDelay) / 1e6

	// 1: throughput scaling 1 -> 2 -> 4 nodes, closed loop at saturation.
	// Seeds are diversified so every request is a distinct batch — the
	// coalescer would otherwise let one overloaded node merge its deep queue
	// into giant batches and masquerade as faster than a spread cluster.
	// Hedging is off here: this arm measures sharding capacity, not tail
	// rescue (the hedging arm below measures that).
	var okPerSec1 float64
	for _, n := range []int{1, 2, 4} {
		o := base
		o.nodes = n
		o.clients = 96
		o.duration = 4 * time.Second
		o.seeds = 1 << 16
		o.hedge = false
		o.slowSpec = fmt.Sprintf("all:%s", serviceDelay)
		fmt.Printf("== scaling: %d node(s) ==\n", n)
		settle()
		s, err := runStudy(o)
		if err != nil {
			return fmt.Errorf("scaling %d nodes: %w", n, err)
		}
		p := scalePoint{Nodes: n, OKPerSec: s.Throughput.OKPerSec, P99MS: s.LatencyMS.P99}
		if n == 1 {
			okPerSec1 = p.OKPerSec
		}
		if okPerSec1 > 0 {
			p.SpeedupV1 = p.OKPerSec / okPerSec1
		}
		bench.Scaling = append(bench.Scaling, p)
	}

	// 2: p99 with and without hedging, one node slow, open loop. The hedge
	// ceiling is dropped to 8ms so the duplicate fires well before the slow
	// node's 25ms service time; the hedge rate lands near the slow node's
	// share of the key space and is recorded as-is.
	const (
		slowDelay = 40 * time.Millisecond
		hedgeMax  = 8 * time.Millisecond
		hedgeRate = 100.0
	)
	bench.Hedging.SlowNodeDelayMS = float64(slowDelay) / 1e6
	bench.Hedging.HedgeMaxMS = float64(hedgeMax) / 1e6
	bench.Hedging.RateHz = hedgeRate
	for _, hedged := range []bool{false, true} {
		o := base
		o.nodes = 2
		o.pools = hedgePools
		o.mixSpec = hedgeMix
		o.rate = hedgeRate
		o.duration = 4 * time.Second
		o.slowSpec = fmt.Sprintf("1:%s", slowDelay)
		o.hedge = hedged
		o.hedgeMax = hedgeMax
		fmt.Printf("== hedging: hedge=%v ==\n", hedged)
		settle()
		s, err := runStudy(o)
		if err != nil {
			return fmt.Errorf("hedging (hedge=%v): %w", hedged, err)
		}
		arm := hedgeArm{OK: s.Totals.OK, P50MS: s.LatencyMS.P50, P99MS: s.LatencyMS.P99}
		if s.Cluster != nil {
			arm.Hedges = s.Cluster.Hedges
			arm.HedgeWins = s.Cluster.HedgeWins
			arm.HedgeRate = s.Cluster.HedgeRate
		}
		if hedged {
			bench.Hedging.Hedged = arm
		} else {
			bench.Hedging.Baseline = arm
		}
	}
	if b := bench.Hedging.Baseline.P99MS; b > 0 {
		bench.Hedging.P99ReductionPct = 100 * (b - bench.Hedging.Hedged.P99MS) / b
	}

	// 3: rolling drain under open-loop load: node 0 drains at half duration,
	// the router re-routes, and the accounting must balance with zero lost.
	{
		o := base
		o.nodes = 3
		o.pools = hedgePools
		o.mixSpec = hedgeMix
		o.rate = 150
		o.duration = 4 * time.Second
		o.drain = true
		o.tenants = 3
		fmt.Printf("== rolling drain: 3 nodes ==\n")
		settle()
		s, err := runStudy(o)
		if err != nil {
			return fmt.Errorf("rolling drain: %w", err)
		}
		d := &bench.RollingDrain
		d.Nodes = 3
		d.RateHz = o.rate
		d.Requests = s.Totals.Requests
		d.OK = s.Totals.OK
		d.Refused = s.Totals.Refused + s.Totals.Refused429
		d.Dropped = s.Totals.Dropped
		d.Balanced = d.OK+d.Refused == d.Requests && d.Dropped == 0
		if !d.Balanced {
			return fmt.Errorf("rolling drain accounting does not balance: %+v", *d)
		}
	}

	if out == "" {
		out = "BENCH_pr8.json"
	}
	if err := exp.WriteJSON(out, &bench); err != nil {
		return err
	}
	fmt.Printf("mpuload: wrote %s\n", out)
	speedup2 := bench.Scaling[1].SpeedupV1
	fmt.Printf("mpuload: scaling 1->2 nodes: %.2fx; 1->4: %.2fx\n", speedup2, bench.Scaling[2].SpeedupV1)
	fmt.Printf("mpuload: hedging p99: %.2fms -> %.2fms (%.0f%% reduction, hedge rate %.3f)\n",
		bench.Hedging.Baseline.P99MS, bench.Hedging.Hedged.P99MS,
		bench.Hedging.P99ReductionPct, bench.Hedging.Hedged.HedgeRate)
	if speedup2 < 1.8 {
		return fmt.Errorf("scaling 1->2 nodes is %.2fx, below the 1.8x acceptance floor", speedup2)
	}
	if bench.Hedging.P99ReductionPct < 30 {
		return fmt.Errorf("hedging reduced p99 by %.0f%%, below the 30%% acceptance floor", bench.Hedging.P99ReductionPct)
	}
	return nil
}

// qosArm is one -qos-bench measurement: the same resident-batch-plus-latency
// load with preemption either enabled or disabled.
type qosArm struct {
	Preempt      bool    `json:"preempt"`
	LatencyOK    uint64  `json:"latency_ok"`
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP90MS float64 `json:"latency_p90_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	LatencyMaxMS float64 `json:"latency_max_ms"`
	BatchJobs    uint64  `json:"batch_jobs"`
	BatchMeanMS  float64 `json:"batch_mean_ms"`
	BatchPerSec  float64 `json:"batch_per_sec"`
	Preemptions  uint64  `json:"preemptions"`
	Spills       uint64  `json:"preempt_spills"`
	Restores     uint64  `json:"restores"`
}

// scrapeCounter reads one unlabeled counter (or histogram _count) value from
// the daemon's /metrics exposition.
func scrapeCounter(client *http.Client, base, name string) (uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("metric %s: bad value %q", name, rest)
			}
			return uint64(v), nil
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// qosBench is the PR 9 acceptance suite. One machine runs a closed-loop
// stream of heavy batch-class jobs — sized so each run spans many thermal
// rounds, the granularity preemption can exploit — while small latency-class
// requests arrive open-loop. The same load is measured with ensemble-boundary
// preemption enabled and disabled (queue priority only); the floors encode
// the tentpole claim: preemption must cut the latency-class p99 at least 5x
// while costing the batch stream at most 15% throughput (closed-loop single
// stream, so throughput is the inverse of mean job service time).
func qosBench(out string) error {
	const (
		batchWorkload = "gcd"
		batchElems    = 1 << 23 // ~35 thermal rounds/job on racer: preemption waits one round, not one job
		latWorkload   = "vecadd"
		latElems      = 256
		latRate       = 0.8 // arrivals/sec; keeps the snapshot+restore tax well inside the batch budget
		measure       = 24 * time.Second
	)
	var bench struct {
		Config struct {
			Pools         string  `json:"pools"`
			BatchWorkload string  `json:"batch_workload"`
			BatchElements int     `json:"batch_elements"`
			LatWorkload   string  `json:"latency_workload"`
			LatElements   int     `json:"latency_elements"`
			LatRateHz     float64 `json:"latency_rate_hz"`
			Duration      string  `json:"duration_per_arm"`
		} `json:"config"`
		Preempt          qosArm  `json:"preempt"`
		NoPreempt        qosArm  `json:"nopreempt"`
		P99ImprovementX  float64 `json:"latency_p99_improvement_x"`
		BatchSlowdownPct float64 `json:"batch_slowdown_pct"`
	}
	bench.Config.Pools = "racer:mpu:1"
	bench.Config.BatchWorkload = batchWorkload
	bench.Config.BatchElements = batchElems
	bench.Config.LatWorkload = latWorkload
	bench.Config.LatElements = latElems
	bench.Config.LatRateHz = latRate
	bench.Config.Duration = measure.String()

	runArm := func(nopreempt bool) (*qosArm, error) {
		o := opts{
			pools:       bench.Config.Pools,
			queue:       16,
			window:      time.Millisecond,
			maxElements: batchElems,
			nopreempt:   nopreempt,
			maxParked:   8,
		}
		url, shutdown, err := selfHost(o, 0)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		transport := &http.Transport{MaxIdleConnsPerHost: 16}
		defer transport.CloseIdleConnections()
		client := &http.Client{Timeout: 2 * time.Minute, Transport: transport}
		execURL := url + "/v1/execute"

		batchBody, _ := json.Marshal(map[string]any{
			"workload": batchWorkload, "backend": "racer", "elements": batchElems, "seed": 7,
		})
		latBody := func(i int) []byte {
			b, _ := json.Marshal(map[string]any{
				"workload": latWorkload, "backend": "racer", "elements": latElems, "seed": i,
			})
			return b
		}
		// Warm both program paths (trace recording, lane allocation) before
		// the measured window so arm one and arm two start equally warm.
		for _, warm := range [][]byte{batchBody, latBody(0)} {
			if status, _, err := post(client, execURL, "", serve.ClassBatch, warm); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("warmup: status %d, err %v", status, err)
			}
		}

		var (
			stop      = make(chan struct{})
			wg        sync.WaitGroup
			mu        sync.Mutex
			batchSecs []float64
			latSecs   []float64
			armErr    error
		)
		fail := func(err error) {
			mu.Lock()
			if armErr == nil {
				armErr = err
			}
			mu.Unlock()
		}
		start := time.Now()
		wg.Add(1)
		go func() { // the resident batch stream: one job always in flight
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				status, _, err := post(client, execURL, "", serve.ClassBatch, batchBody)
				if err != nil || status != http.StatusOK {
					fail(fmt.Errorf("batch job: status %d, err %v", status, err))
					return
				}
				sec := time.Since(t0).Seconds()
				mu.Lock()
				batchSecs = append(batchSecs, sec)
				mu.Unlock()
			}
		}()

		rng := rand.New(rand.NewSource(9))
		var lwg sync.WaitGroup
		deadline := start.Add(measure)
		for i := 0; time.Now().Before(deadline); i++ {
			time.Sleep(time.Duration(rng.ExpFloat64() / latRate * float64(time.Second)))
			lwg.Add(1)
			go func(i int) {
				defer lwg.Done()
				t0 := time.Now()
				status, _, err := post(client, execURL, "", serve.ClassLatency, latBody(i))
				if err != nil || status != http.StatusOK {
					fail(fmt.Errorf("latency request: status %d, err %v", status, err))
					return
				}
				sec := time.Since(t0).Seconds()
				mu.Lock()
				latSecs = append(latSecs, sec)
				mu.Unlock()
			}(i)
		}
		lwg.Wait()
		close(stop)
		wg.Wait()
		elapsed := time.Since(start)
		if armErr != nil {
			return nil, armErr
		}

		arm := &qosArm{Preempt: !nopreempt}
		if arm.Preemptions, err = scrapeCounter(client, url, "mpud_preemptions_total"); err != nil {
			return nil, err
		}
		if arm.Spills, err = scrapeCounter(client, url, "mpud_preempt_spills_total"); err != nil {
			return nil, err
		}
		if arm.Restores, err = scrapeCounter(client, url, "mpud_restore_seconds_count"); err != nil {
			return nil, err
		}
		arm.LatencyOK = uint64(len(latSecs))
		arm.LatencyP50MS = exp.Percentile(latSecs, 0.50) * 1e3
		arm.LatencyP90MS = exp.Percentile(latSecs, 0.90) * 1e3
		arm.LatencyP99MS = exp.Percentile(latSecs, 0.99) * 1e3
		arm.LatencyMaxMS = exp.Percentile(latSecs, 1.0) * 1e3
		arm.BatchJobs = uint64(len(batchSecs))
		if len(batchSecs) > 0 {
			var sum float64
			for _, s := range batchSecs {
				sum += s
			}
			arm.BatchMeanMS = sum / float64(len(batchSecs)) * 1e3
			arm.BatchPerSec = float64(len(batchSecs)) / elapsed.Seconds()
		}
		fmt.Printf("mpuload: qos arm preempt=%v: latency p99 %.1fms (%d ok), batch mean %.0fms (%d jobs), %d preemptions, %d spills\n",
			arm.Preempt, arm.LatencyP99MS, arm.LatencyOK, arm.BatchMeanMS, arm.BatchJobs, arm.Preemptions, arm.Spills)
		return arm, nil
	}

	for _, nopreempt := range []bool{true, false} {
		fmt.Printf("== qos: preempt=%v ==\n", !nopreempt)
		arm, err := runArm(nopreempt)
		if err != nil {
			return fmt.Errorf("qos arm (nopreempt=%v): %w", nopreempt, err)
		}
		if nopreempt {
			bench.NoPreempt = *arm
		} else {
			bench.Preempt = *arm
		}
	}
	if p := bench.Preempt.LatencyP99MS; p > 0 {
		bench.P99ImprovementX = bench.NoPreempt.LatencyP99MS / p
	}
	if m := bench.NoPreempt.BatchMeanMS; m > 0 {
		bench.BatchSlowdownPct = 100 * (bench.Preempt.BatchMeanMS - m) / m
	}

	if out == "" {
		out = "BENCH_pr9.json"
	}
	if err := exp.WriteJSON(out, &bench); err != nil {
		return err
	}
	fmt.Printf("mpuload: wrote %s\n", out)
	fmt.Printf("mpuload: qos: latency p99 %.1fms -> %.1fms (%.1fx), batch mean %.0fms -> %.0fms (%.1f%% slower)\n",
		bench.NoPreempt.LatencyP99MS, bench.Preempt.LatencyP99MS, bench.P99ImprovementX,
		bench.NoPreempt.BatchMeanMS, bench.Preempt.BatchMeanMS, bench.BatchSlowdownPct)

	// Acceptance floors: the latency-class tail must improve at least 5x, the
	// batch stream must keep at least 85% of its uncontended-arm throughput,
	// and the win must actually come from preemption (not an idle machine).
	if bench.NoPreempt.Preemptions != 0 {
		return fmt.Errorf("nopreempt arm recorded %d preemptions; the knob did not take", bench.NoPreempt.Preemptions)
	}
	if bench.Preempt.Preemptions < 5 {
		return fmt.Errorf("preempt arm recorded only %d preemptions; the latency load never contended", bench.Preempt.Preemptions)
	}
	if bench.P99ImprovementX < 5 {
		return fmt.Errorf("preemption improved latency p99 %.1fx, below the 5x acceptance floor", bench.P99ImprovementX)
	}
	if bench.BatchSlowdownPct > 15 {
		return fmt.Errorf("preemption slowed the batch stream %.1f%%, above the 15%% acceptance ceiling", bench.BatchSlowdownPct)
	}
	return nil
}
