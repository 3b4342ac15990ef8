package main

// Per-layer attribution, measured from outside the program: handler spans
// from the timing middleware (router and node layers), counter deltas from
// the router and the nodes' /metrics, and the direct phase's timed calls
// into each module's public functions.

// layerInputs is what a traced run collected.
type layerInputs struct {
	traced, plain, open *phase
	spans               []span
	direct              []layerTimes
	compileNS           []int64
	exec                *execPlan // nil for the pipeline workload
	hedges, wins        float64
	retries             float64
	requests, batches   float64 // node counter deltas
}

// opSpans is one traced op's span tree: its router span and the node
// attempts that span covers.
type opSpans struct {
	s      *sample
	router interval
	nodes  []span
}

// linkSpans joins every answered op of ph to its router span (same request
// hash, contained in the op's client span) and that span's node attempts
// (same hash, contained in the router span).
func linkSpans(ph *phase, spans []span) []opSpans {
	byHash := map[uint64][]span{}
	for _, sp := range spans {
		byHash[sp.Hash] = append(byHash[sp.Hash], sp)
	}
	var out []opSpans
	for _, s := range ph.samples {
		if !s.ok() {
			continue
		}
		var os opSpans
		found := false
		for _, sp := range byHash[s.hash] {
			if sp.Layer == "router" && sp.Start >= s.sent && sp.End <= s.done {
				os, found = opSpans{s: s, router: interval{sp.Start, sp.End}}, true
				break
			}
		}
		if !found {
			continue
		}
		for _, sp := range byHash[s.hash] {
			if sp.Layer != "router" && sp.Start >= os.router.start && sp.End <= os.router.end {
				os.nodes = append(os.nodes, sp)
			}
		}
		if len(os.nodes) > 0 {
			out = append(out, os)
		}
	}
	return out
}

// winner is the attempt whose answer the router relayed: the first
// successful node span to end.
func (os *opSpans) winner() *span {
	var w *span
	for i := range os.nodes {
		sp := &os.nodes[i]
		if statusOK(sp.Status) && (w == nil || sp.End < w.End) {
			w = sp
		}
	}
	return w
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics adds every per-layer metric to o, plus the stress shares
// the workloads are chosen for.
func layerMetrics(o *outcome, in layerInputs) {
	ops := float64(o.attempted)

	linked := linkSpans(in.traced, in.spans)
	var routerSelf, nodeMS []float64
	for _, os := range linked {
		var kids []interval
		for _, n := range os.nodes {
			kids = append(kids, interval{n.Start, n.End})
			nodeMS = append(nodeMS, msOf(n.End-n.Start))
		}
		routerSelf = append(routerSelf, msOf(selfTime(os.router, kids)))
	}
	o.add("router.self_ms_p50", median(routerSelf), "ms", len(routerSelf))
	o.add("router.hedge_ratio", ratio(in.hedges, ops), "ratio", int(ops))
	o.add("router.hedge_win_ratio", ratio(in.wins, in.hedges), "ratio", int(in.hedges))
	o.add("router.retry_ratio", ratio(in.retries, ops), "ratio", int(ops))
	o.add("serve.node_ms_p50", median(nodeMS), "ms", len(nodeMS))

	// Direct-phase cost per op key, to split node time into the layers
	// below serve and serve's own share (queueing, batch window, HTTP, JSON).
	// Execute ops are keyed by distinct request, pipeline advances by
	// session (every advance of a session does the same work).
	keyNS := map[int][]float64{}
	runNS := map[int][]float64{}
	snapNS := map[int][]float64{}
	for _, lt := range in.direct {
		keyNS[lt.key] = append(keyNS[lt.key], float64(lt.total()))
		runNS[lt.key] = append(runNS[lt.key], float64(lt.run))
		snapNS[lt.key] = append(snapNS[lt.key], float64(lt.restore+lt.snapshot))
	}
	var serveSelf []float64
	var nodeSum, runSum, snapSum float64
	for _, os := range linked {
		w := os.winner()
		if w == nil {
			continue
		}
		key := os.s.sess
		if in.exec != nil {
			key = in.exec.op(os.s.op).id
		}
		direct, ok := keyNS[key]
		if !ok {
			continue
		}
		span := float64(w.End - w.Start)
		serveSelf = append(serveSelf, msOf(int64(span-mean(direct))))
		nodeSum += span
		runSum += mean(runNS[key])
		snapSum += mean(snapNS[key])
	}
	o.add("serve.self_ms_mean", mean(serveSelf), "ms", len(serveSelf))
	o.add("serve.coalesce_ratio", ratio(in.requests, in.batches), "ratio", int(in.batches))

	var encode, lintUS, prepare, finish, run, snapMS, restoreMS, snapBytes []float64
	var runTotal, microOps, cycles, rounds, misses, fallbacks, replays, jit float64
	for _, lt := range in.direct {
		encode = append(encode, usOf(lt.encode))
		if lt.binary {
			lintUS = append(lintUS, usOf(lt.lint))
		} else if in.exec != nil {
			prepare = append(prepare, usOf(lt.prepare))
			finish = append(finish, usOf(lt.finish))
		}
		run = append(run, msOf(lt.run))
		if in.exec == nil {
			snapMS = append(snapMS, msOf(lt.snapshot))
			restoreMS = append(restoreMS, msOf(lt.restore))
			snapBytes = append(snapBytes, float64(lt.snapBytes))
		}
		runTotal += float64(lt.run)
		microOps += float64(lt.st.MicroOps)
		cycles += float64(lt.st.Cycles)
		rounds += float64(lt.st.Rounds)
		misses += float64(lt.st.TraceMisses)
		fallbacks += float64(lt.st.TraceFallbacks)
		replays += float64(lt.st.JITReplays)
		jit += float64(lt.st.JITCompiles)
	}
	var compileMS []float64
	for _, ns := range in.compileNS {
		compileMS = append(compileMS, msOf(ns))
	}
	n := len(in.direct)
	o.add("serve.encode_us_p50", median(encode), "us", len(encode))
	o.add("lint.preflight_us_p50", median(lintUS), "us", len(lintUS))
	o.add("fbp.compile_ms", median(compileMS), "ms", len(compileMS))
	o.add("workloads.prepare_us_p50", median(prepare), "us", len(prepare))
	o.add("workloads.finish_us_p50", median(finish), "us", len(finish))
	o.add("machine.run_ms_p50", median(run), "ms", len(run))
	o.add("machine.host_ns_per_microop", ratio(runTotal, microOps), "ns", n)
	o.add("machine.microops_total", microOps, "count", n)
	o.add("machine.sim_cycles_total", cycles, "count", n)
	o.add("trace.misses_per_op", ratio(misses, float64(n)), "count", n)
	o.add("trace.fallback_ratio", ratio(fallbacks, rounds), "ratio", int(rounds))
	o.add("trace.jit_replay_ratio", ratio(replays, rounds), "ratio", int(rounds))
	// The pipeline's direct phase starts after each session's warm-up
	// advance, so its JIT compiles are the warm ones.
	o.add("trace.warm_jit_compiles", jit, "count", n)
	o.add("snap.snapshot_ms_p50", median(snapMS), "ms", len(snapMS))
	o.add("snap.restore_ms_p50", median(restoreMS), "ms", len(restoreMS))
	o.add("snap.bytes_mean", mean(snapBytes), "bytes", len(snapBytes))

	var late []float64
	for _, ns := range in.open.late {
		late = append(late, msOf(ns))
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		lateP99 = maxOf(late) // too few arrivals for a p99: report the worst
	}
	o.add("bench.late_p99_ms", lateP99, "ms", len(late))
	plainOK, _, _ := in.plain.counts()
	tracedOK, _, _ := in.traced.counts()
	o.add("bench.trace_overhead_ratio", ratio(
		float64(tracedOK)/float64(in.traced.end-in.traced.start),
		float64(plainOK)/float64(in.plain.end-in.plain.start)), "ratio", tracedOK)

	o.shares = map[string]float64{
		"machine_run_share_of_node": ratio(runSum, nodeSum),
		"snap_share_of_node":        ratio(snapSum, nodeSum),
	}
}

func maxOf(values []float64) float64 {
	var m float64
	for _, v := range values {
		if v > m {
			m = v
		}
	}
	return m
}
