package main

import (
	"encoding/json"
	"fmt"

	"mpu/internal/fbp"
	"mpu/internal/lint"
	"mpu/internal/lint/comm"
	"mpu/internal/machine"
	"mpu/internal/serve"
	"mpu/internal/workloads"
)

// The direct phase of a traced run replays a fixed prefix of the op list
// sequentially through the public functions of each layer, on warm machines
// built the way the pools build theirs, and times every call. The prefix
// depends only on (workload, seed), so the modeled counters it sums repeat
// exactly.

// layerTimes is one op's direct-phase cost, in nanoseconds per layer.
type layerTimes struct {
	key       int  // distinct execute op id, or pipeline session
	binary    bool // prepare/finish are the binary path's, not PrepareOn/Finish
	lint      int64
	prepare   int64
	run       int64
	finish    int64
	encode    int64
	restore   int64
	snapshot  int64
	snapBytes int
	st        machine.Stats
}

func (l *layerTimes) total() int64 {
	return l.lint + l.prepare + l.run + l.finish + l.encode + l.restore + l.snapshot
}

// directExec replays one full cycle of the execute op list.
func directExec(p *execPlan) ([]layerTimes, error) {
	machines := map[string]*machine.Machine{}
	var out []layerTimes
	for i := range p.perm {
		op := p.op(i)
		key := op.spec.Name + "/" + op.mode.String()
		m := machines[key]
		if m == nil {
			var err error
			if m, err = machine.New(workloads.MachineConfigFor(workloads.RunConfig{Spec: op.spec, Mode: op.mode})); err != nil {
				return nil, err
			}
			machines[key] = m
		}
		lt, err := directExecOp(m, op)
		if err != nil {
			return nil, fmt.Errorf("direct %s/%s: %w", op.kernel.Name, key, err)
		}
		out = append(out, lt)
	}
	return out, nil
}

func directExecOp(m *machine.Machine, op *execOp) (layerTimes, error) {
	lt := layerTimes{key: op.id, binary: op.prog != nil}
	var resp *serve.Response
	var st *machine.Stats
	if op.prog != nil {
		t0 := nowNS()
		if err := lint.Preflight(op.prog, op.spec); err != nil {
			return lt, err
		}
		if rep := comm.LintSPMD(op.prog, 1, comm.Options{Spec: op.spec}); !rep.Ok() {
			return lt, fmt.Errorf("commlint rejected the binary")
		}
		lt.lint = nowNS() - t0
		var ns [3]int64
		var err error
		if resp, st, ns, err = runBinary(m, op); err != nil {
			return lt, err
		}
		lt.prepare, lt.run, lt.finish = ns[0], ns[1], ns[2]
	} else {
		cfg := workloads.RunConfig{Spec: op.spec, Mode: op.mode, TotalElements: op.req.Elements, Seed: op.req.Seed, Check: op.req.Check}
		t0 := nowNS()
		prep, err := workloads.PrepareOn(m, op.kernel, cfg)
		if err != nil {
			return lt, err
		}
		t1 := nowNS()
		run, err := m.Run()
		if err != nil {
			return lt, err
		}
		t2 := nowNS()
		res, err := prep.Finish(run)
		if err != nil {
			return lt, err
		}
		t3 := nowNS()
		lt.prepare, lt.run, lt.finish = t1-t0, t2-t1, t3-t2
		st = res.Stats
		resp = &serve.Response{
			Workload: op.kernel.Name, Backend: op.spec.Name, Mode: op.mode.String(),
			Elements: op.req.Elements, Seed: op.req.Seed, BatchSize: 1,
			Seconds: res.Seconds, Joules: res.Joules, CheckedLanes: res.CheckedLanes,
		}
	}
	t0 := nowNS()
	statsJSON, err := json.Marshal(st)
	if err != nil {
		return lt, err
	}
	resp.Stats = statsJSON
	if _, err := json.Marshal(resp); err != nil {
		return lt, err
	}
	lt.encode = nowNS() - t0
	lt.st = *st
	return lt, nil
}

// directPipeline compiles each session's graph (timed, once per session),
// replays every session's warm-up advance untimed, then replays the first
// n ops of the op list, timing restore, each record's Run, encode and
// snapshot.
func directPipeline(p *pipePlan, n int) (compileNS []int64, out []layerTimes, err error) {
	type live struct {
		c    *fbp.Compiled
		m    *machine.Machine
		snap []byte
		adv  int
	}
	sessions := make([]*live, len(p.sessions))
	for s := range p.sessions {
		t0 := nowNS()
		c, err := p.compileSession(s)
		if err != nil {
			return nil, nil, err
		}
		compileNS = append(compileNS, nowNS()-t0)
		m, err := p.sessionMachine(c)
		if err != nil {
			return nil, nil, err
		}
		if _, _, _, err := runRecords(m, c, p.records(s, 0)); err != nil {
			return nil, nil, err
		}
		sessions[s] = &live{c: c, m: m, snap: m.Snapshot(), adv: 1}
	}
	for i := 0; i < n; i++ {
		s := p.session(i)
		ls := sessions[s]
		lt := layerTimes{key: s}
		t0 := nowNS()
		if err := ls.m.Restore(ls.snap); err != nil {
			return nil, nil, err
		}
		lt.restore = nowNS() - t0
		recs, st, runNS, err := runRecords(ls.m, ls.c, p.records(s, ls.adv))
		if err != nil {
			return nil, nil, err
		}
		lt.run, lt.st = runNS, st
		ls.adv++
		t1 := nowNS()
		if _, err := json.Marshal(serve.AdvanceResponse{Records: recs}); err != nil {
			return nil, nil, err
		}
		t2 := nowNS()
		ls.snap = ls.m.Snapshot()
		lt.encode, lt.snapshot, lt.snapBytes = t2-t1, nowNS()-t2, len(ls.snap)
		out = append(out, lt)
	}
	return compileNS, out, nil
}
