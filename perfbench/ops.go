package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/serve"
	"mpu/internal/workloads"
)

// The op list of a run is a pure function of (workload, seed): every
// request body, register value and kernel seed below is derived from the
// run seed through mix, and the served program sees only these generated
// inputs.

// mix is a SplitMix64-style hash of its arguments.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// execElements is the element count of every workload request.
const execElements = 128

// execOp is one distinct /v1/execute request with the answer it must get.
type execOp struct {
	id     int
	class  string // X-QoS header
	body   []byte // request JSON
	hash   uint64 // hash of path and body, links client and server spans
	req    serve.Request
	kernel *workloads.Kernel
	spec   *backends.Spec
	mode   machine.Mode
	prog   isa.Program // binary requests only
	want   []byte      // the expected response body at batch_size 1
}

// execPlan is an execute workload's op list: op i is ops[perm[i%len(perm)]].
// Cycling one permutation keeps identical requests len(ops) apart, so they
// never meet in a coalescing window.
type execPlan struct {
	ops  []*execOp
	perm []int
}

func (p *execPlan) op(i int) *execOp { return p.ops[p.perm[i%len(p.perm)]] }

type execCombo struct {
	kernel, backend string
	mode            machine.Mode
}

// dynamicCombos are data-dependent-loop kernels: every request is one
// untraceable round run by the interpreter. The kernel/back-end pairs whose
// Run takes over 10 ms at the median (ibert-sqrt and euclidean on SIMDRAM,
// euclidean on RACER and MIMDRAM, gcd on SIMDRAM) are left out: a Poisson
// clump of them sets the p99 by chance, which no seed count averages away.
func dynamicCombos() []execCombo {
	var out []execCombo
	for _, k := range []string{"gcd", "crc32", "ibert-sqrt"} {
		for _, b := range []string{"racer", "mimdram", "dcache"} {
			out = append(out, execCombo{k, b, machine.ModeMPU})
		}
	}
	return append(out,
		execCombo{"crc32", "simdram", machine.ModeMPU},
		execCombo{"euclidean", "dcache", machine.ModeMPU},
		execCombo{"gcd", "racer", machine.ModeBaseline})
}

// lightCombos are straight-line kernels whose Machine.Run is a small share
// of the served path.
func lightCombos() []execCombo {
	var out []execCombo
	for _, k := range []string{"vecadd", "relu", "vecxor", "threshold", "sobelx", "manhattan"} {
		for _, b := range []string{"racer", "mimdram", "dcache", "simdram"} {
			out = append(out, execCombo{k, b, machine.ModeMPU})
		}
	}
	return out
}

// buildExecPlan derives the distinct requests (workloadSeeds catalog
// requests plus binarySeeds encoded-binary requests per combo) and computes
// each one's expected answer by direct in-process calls. The kernel seeds
// are a fixed list, the same for every run: a data-dependent loop's cost
// depends on its inputs, and the slowest few inputs set the p99, so the run
// seed orders the requests and times the arrivals but does not redraw them.
func buildExecPlan(seed int64, combos []execCombo, class string, workloadSeeds, binarySeeds int) (*execPlan, error) {
	p := &execPlan{}
	for ci, c := range combos {
		k := workloads.ByName(c.kernel)
		spec, err := backends.ByName(c.backend)
		if k == nil || err != nil {
			return nil, fmt.Errorf("combo %s/%s: unknown kernel or back end", c.kernel, c.backend)
		}
		for j := 0; j < workloadSeeds+binarySeeds; j++ {
			kseed := int64(mix(uint64(ci), uint64(j)) >> 2)
			op := &execOp{id: len(p.ops), class: class, kernel: k, spec: spec, mode: c.mode}
			op.req = serve.Request{Backend: c.backend, Mode: c.mode.String(), Seed: kseed}
			if j < workloadSeeds {
				op.req.Workload = k.Name
				op.req.Elements = execElements
				op.req.Check = true
				err = expectWorkload(op)
			} else {
				err = expectBinary(op, kseed)
			}
			if err != nil {
				return nil, err
			}
			if op.body, err = json.Marshal(op.req); err != nil {
				return nil, err
			}
			op.hash = spanHash("/v1/execute", op.body)
			p.ops = append(p.ops, op)
		}
	}
	p.perm = rand.New(rand.NewSource(seed)).Perm(len(p.ops))
	return p, nil
}

// expectWorkload computes a catalog request's answer with workloads.Run on
// a fresh machine: the served Stats must equal these bytes whatever pool
// machine, batch or preemption served them.
func expectWorkload(op *execOp) error {
	res, err := workloads.Run(op.kernel, workloads.RunConfig{
		Spec: op.spec, Mode: op.mode, TotalElements: op.req.Elements, Seed: op.req.Seed, Check: true,
	})
	if err != nil {
		return fmt.Errorf("expected %s/%s: %w", op.kernel.Name, op.spec.Name, err)
	}
	if res.CheckedLanes == 0 {
		return fmt.Errorf("expected %s/%s: no lanes checked", op.kernel.Name, op.spec.Name)
	}
	st, err := json.Marshal(res.Stats)
	if err != nil {
		return err
	}
	op.want, err = json.Marshal(serve.Response{
		Workload: op.kernel.Name, Backend: op.spec.Name, Mode: op.mode.String(),
		Elements: op.req.Elements, Seed: op.req.Seed, BatchSize: 1,
		Seconds: res.Seconds, Joules: res.Joules, CheckedLanes: res.CheckedLanes, Stats: st,
	})
	return err
}

// expectBinary assembles the kernel as an encoded binary over one VRF with
// seeded register preloads, and computes the dumps by a direct machine run,
// cross-checked lane by lane against the kernel's reference function.
func expectBinary(op *execOp, kseed int64) error {
	k, spec := op.kernel, op.spec
	prog, addrs, err := workloads.BuildProgram(k, spec, 1)
	if err != nil {
		return err
	}
	op.prog = prog
	op.req.Binary = base64.StdEncoding.EncodeToString(isa.EncodeProgram(prog))
	a := addrs[0]
	inputs := k.Gen(rand.New(rand.NewSource(kseed)), spec.Lanes)
	for reg, vals := range inputs {
		op.req.Sets = append(op.req.Sets, serve.RegisterSet{RFH: a.RFH, VRF: a.VRF, Reg: reg, Values: vals})
	}
	op.req.Dumps = []serve.RegisterRef{{RFH: a.RFH, VRF: a.VRF, Reg: k.Out}}

	m, err := machine.New(workloads.MachineConfigFor(workloads.RunConfig{Spec: spec, Mode: op.mode}))
	if err != nil {
		return err
	}
	resp, st, _, err := runBinary(m, op)
	if err != nil {
		return fmt.Errorf("expected binary %s/%s: %w", k.Name, spec.Name, err)
	}
	lane := make([]uint64, k.Inputs)
	for l, got := range resp.Dumps[0].Values {
		for r := range lane {
			lane[r] = inputs[r][l]
		}
		if want := k.Ref(lane); got != want {
			return fmt.Errorf("expected binary %s/%s: lane %d = %#x, reference %#x", k.Name, spec.Name, l, got, want)
		}
	}
	statsJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	resp.Stats = statsJSON
	op.want, err = json.Marshal(resp)
	return err
}

// runBinary is the binary path of a served request on machine m: reset,
// load and preload (prepare), run, read back (finish). It returns the
// response without Stats, the run's stats and the three stage times in ns.
func runBinary(m *machine.Machine, op *execOp) (*serve.Response, *machine.Stats, [3]int64, error) {
	var ns [3]int64
	t0 := nowNS()
	m.Reset()
	if err := m.LoadAll(op.prog); err != nil {
		return nil, nil, ns, err
	}
	for _, s := range op.req.Sets {
		if err := m.WriteVector(0, controlpath.VRFAddr{RFH: s.RFH, VRF: s.VRF}, s.Reg, s.Values); err != nil {
			return nil, nil, ns, err
		}
	}
	t1 := nowNS()
	run, err := m.Run()
	if err != nil {
		return nil, nil, ns, err
	}
	t2 := nowNS()
	st := *run
	resp := &serve.Response{Backend: op.spec.Name, Mode: op.mode.String(), Seed: op.req.Seed, BatchSize: 1}
	for _, d := range op.req.Dumps {
		vals, err := m.ReadVector(0, controlpath.VRFAddr{RFH: d.RFH, VRF: d.VRF}, d.Reg)
		if err != nil {
			return nil, nil, ns, err
		}
		resp.Dumps = append(resp.Dumps, serve.RegisterDump{RFH: d.RFH, VRF: d.VRF, Reg: d.Reg, Values: vals})
	}
	ns = [3]int64{t1 - t0, t2 - t1, nowNS() - t2}
	return resp, &st, ns, nil
}

// checkExec reports whether a served body is the expected answer. The
// envelope's batch_size is the only field allowed to differ.
func checkExec(op *execOp, body []byte) bool {
	if bytes.Equal(body, op.want) {
		return true
	}
	var r serve.Response
	if json.Unmarshal(body, &r) != nil {
		return false
	}
	r.BatchSize = 1
	norm, err := json.Marshal(r)
	return err == nil && bytes.Equal(norm, op.want)
}

// Pipeline sessions. Each advance carries recordsPerAdvance records; the
// ring session gets one advance in ringEvery.
const (
	recordsPerAdvance = 8
	ringEvery         = 16
	pipelineBackend   = "racer"
	ringVRFs          = 4 // EDStep's default resident-read VRFs per MPU
)

// sessionSpec is one persistent session of the pipeline workload.
type sessionSpec struct {
	name   string
	graph  string // examples/pipelines/<graph>.fbp
	ring   bool
	salt   uint64
	source string
}

func pipelineSessions() []*sessionSpec {
	return []*sessionSpec{
		{name: "etl-a", graph: "etl", salt: 1},
		{name: "etl-b", graph: "etl", salt: 2},
		{name: "ring", graph: "editdistance_ring", ring: true, salt: 3},
	}
}

// pipePlan is the pipeline workload's op list: op i advances session
// session(i) by its next batch of records.
type pipePlan struct {
	seed     int64
	spec     *backends.Spec
	sessions []*sessionSpec
	ringAddr []controlpath.VRFAddr
}

func buildPipePlan(seed int64, root string) (*pipePlan, error) {
	spec, err := backends.ByName(pipelineBackend)
	if err != nil {
		return nil, err
	}
	p := &pipePlan{seed: seed, spec: spec, sessions: pipelineSessions()}
	p.ringAddr, _ = apps.EditDistanceLayout(spec, ringVRFs)
	for _, s := range p.sessions {
		src, err := os.ReadFile(filepath.Join(root, "examples", "pipelines", s.graph+".fbp"))
		if err != nil {
			return nil, err
		}
		s.source = string(src)
	}
	return p, nil
}

// session returns which session op i advances: every ringEvery-th op goes
// to the ring and the others alternate between the two etl sessions. A
// fixed pattern rather than a random draw keeps the ring session's
// arrivals regular, so its queue does not decide the tail on its own.
func (p *pipePlan) session(i int) int {
	if i%ringEvery == ringEvery-1 {
		return 2
	}
	return (i % ringEvery) & 1
}

// records returns advance adv of session s (adv 0 is the warm-up advance).
func (p *pipePlan) records(s, adv int) []serve.PipelineRecord {
	ss := p.sessions[s]
	lanes := p.spec.Lanes
	val := func(rec, node, vrf, reg, lane int) uint64 {
		return mix(uint64(p.seed), ss.salt, uint64(adv), uint64(rec), uint64(node), uint64(vrf), uint64(reg), uint64(lane)) & 0xffff
	}
	vec := func(rec, node, vrf, reg int) []uint64 {
		out := make([]uint64, lanes)
		for l := range out {
			out[l] = val(rec, node, vrf, reg, l)
		}
		return out
	}
	recs := make([]serve.PipelineRecord, recordsPerAdvance)
	for r := range recs {
		if !ss.ring {
			recs[r] = serve.PipelineRecord{
				Sets:  []serve.PipelineSet{{Node: "src", Reg: 0, Values: vec(r, 0, 0, 0)}, {Node: "src", Reg: 1, Values: vec(r, 0, 0, 1)}},
				Dumps: []serve.PipelineRef{{Node: "total", Reg: 48}},
			}
			continue
		}
		// Each record sends fresh queries round the ring; the resident
		// chunks and the best-score registers are loaded once, by the
		// warm-up advance, and the scores keep their running minimum.
		for n := 0; n < 8; n++ {
			node := fmt.Sprintf("ed%d", n)
			for v, a := range p.ringAddr {
				if adv == 0 && r == 0 {
					recs[r].Sets = append(recs[r].Sets,
						serve.PipelineSet{Node: node, RFH: a.RFH, VRF: a.VRF, Reg: apps.EDChunkReg, Values: vec(r, n, v, apps.EDChunkReg)},
						serve.PipelineSet{Node: node, RFH: a.RFH, VRF: a.VRF, Reg: apps.EDBestReg, Values: broadcast(lanes, 1<<20)})
				}
				recs[r].Sets = append(recs[r].Sets, serve.PipelineSet{Node: node, RFH: a.RFH, VRF: a.VRF, Reg: apps.EDQueryReg, Values: vec(r, n, v, apps.EDQueryReg)})
			}
			a := p.ringAddr[0]
			recs[r].Dumps = append(recs[r].Dumps, serve.PipelineRef{Node: node, RFH: a.RFH, VRF: a.VRF, Reg: apps.EDBestReg})
		}
	}
	return recs
}

func broadcast(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// compileSession compiles a session's graph the way mpud does at create.
func (p *pipePlan) compileSession(s int) (*fbp.Compiled, error) {
	return fbp.CompileSource(p.sessions[s].source, fbp.Options{Spec: p.spec, MaxMPUs: 64})
}

// sessionMachine builds the machine a session runs on: the pool
// configuration with the compiled graph's MPU count.
func (p *pipePlan) sessionMachine(c *fbp.Compiled) (*machine.Machine, error) {
	mc := workloads.MachineConfigFor(workloads.RunConfig{Spec: p.spec, Mode: machine.ModeMPU})
	mc.NumMPUs = c.MPUs
	m, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	m.Reset()
	for mpu, prog := range c.Programs {
		if err := m.LoadProgram(mpu, prog); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runRecords streams one advance's records through m in order, the way a
// session advance does between its restore and its snapshot, and returns
// the dumps plus the summed stats and Run time.
func runRecords(m *machine.Machine, c *fbp.Compiled, recs []serve.PipelineRecord) ([]serve.RecordResult, machine.Stats, int64, error) {
	nodeMPU := make(map[string]int, len(c.Nodes))
	for _, n := range c.Nodes {
		nodeMPU[n.Name] = n.MPU
	}
	var sum machine.Stats
	var runNS int64
	out := make([]serve.RecordResult, 0, len(recs))
	for _, rec := range recs {
		m.Rewind()
		for _, s := range rec.Sets {
			if err := m.WriteVector(nodeMPU[s.Node], controlpath.VRFAddr{RFH: s.RFH, VRF: s.VRF}, s.Reg, s.Values); err != nil {
				return nil, sum, 0, err
			}
		}
		t0 := nowNS()
		st, err := m.Run()
		runNS += nowNS() - t0
		if err != nil {
			return nil, sum, 0, err
		}
		addStats(&sum, st)
		var rr serve.RecordResult
		for _, d := range rec.Dumps {
			vals, err := m.ReadVector(nodeMPU[d.Node], controlpath.VRFAddr{RFH: d.RFH, VRF: d.VRF}, d.Reg)
			if err != nil {
				return nil, sum, 0, err
			}
			rr.Dumps = append(rr.Dumps, serve.PipelineDump{Node: d.Node, RFH: d.RFH, VRF: d.VRF, Reg: d.Reg, Values: vals})
		}
		out = append(out, rr)
	}
	return out, sum, runNS, nil
}

func addStats(sum *machine.Stats, st *machine.Stats) {
	sum.Cycles += st.Cycles
	sum.MicroOps += st.MicroOps
	sum.Rounds += st.Rounds
	sum.TraceHits += st.TraceHits
	sum.TraceMisses += st.TraceMisses
	sum.TraceFallbacks += st.TraceFallbacks
	sum.JITCompiles += st.JITCompiles
	sum.JITReplays += st.JITReplays
}

// expectSessions replays each session's served advances in order on a
// direct machine and returns, per session, the expected record results of
// advances 0..counts[s]-1.
func (p *pipePlan) expectSessions(counts []int) ([][][]serve.RecordResult, error) {
	out := make([][][]serve.RecordResult, len(p.sessions))
	for s := range p.sessions {
		c, err := p.compileSession(s)
		if err != nil {
			return nil, err
		}
		m, err := p.sessionMachine(c)
		if err != nil {
			return nil, err
		}
		for adv := 0; adv < counts[s]; adv++ {
			res, _, _, err := runRecords(m, c, p.records(s, adv))
			if err != nil {
				return nil, fmt.Errorf("expected %s advance %d: %w", p.sessions[s].name, adv, err)
			}
			out[s] = append(out[s], res)
		}
	}
	return out, nil
}

// checkAdvance reports whether a served advance body carries the expected
// record results.
func checkAdvance(body []byte, want []serve.RecordResult) bool {
	var r serve.AdvanceResponse
	if json.Unmarshal(body, &r) != nil || len(r.Records) != len(want) {
		return false
	}
	for i := range want {
		if len(r.Records[i].Dumps) != len(want[i].Dumps) {
			return false
		}
		for j, d := range want[i].Dumps {
			g := r.Records[i].Dumps[j]
			if g.Node != d.Node || g.Reg != d.Reg || len(g.Values) != len(d.Values) {
				return false
			}
			for l := range d.Values {
				if g.Values[l] != d.Values[l] {
					return false
				}
			}
		}
	}
	return true
}
