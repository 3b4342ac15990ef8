package machine_test

// FuzzJITParity is the trace JIT's differential oracle: arbitrary bytes are
// shaped into a lint-clean straight-line compute-ensemble body, and the body
// runs twice — JIT (default: replayed rounds run the closure chain) and
// NoTrace (pure interpreter). Both must leave identical register planes in
// every VRF and report identical Stats (engine-strategy counters aside). Each body also runs under a deliberately tiny recipe table so the
// recipe-cold replay fallback (ReplayAllHit false) is exercised, and the
// seed corpus includes a body large enough to spill the playback buffer.
//
// Run with `go test -fuzz=FuzzJITParity ./internal/machine`.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/machine"
)

// fuzzVRFs activates four VRFs per ensemble; with ActiveVRFsOverride 1 the
// scheduler splits them into four rounds — one recording, three replaying.
const fuzzVRFs = 4

// fuzzRegs bounds the register window the generated bodies touch (and the
// harness seeds and compares).
const fuzzRegs = 16

// fuzzOps is the datapath subset generated bodies draw from: every
// micro-coded kind the JIT compiles, via representative ISA ops.
var fuzzOps = []isa.Op{
	isa.ADD, isa.SUB, isa.INC, isa.INIT0, isa.INIT1,
	isa.CMPEQ, isa.CMPGT, isa.CMPLT, isa.CAS, isa.MUX, isa.MAX, isa.MIN,
	isa.AND, isa.NAND, isa.NOR, isa.INV, isa.OR, isa.XOR, isa.XNOR,
	isa.POPC, isa.RELU,
}

// fuzzBody shapes 4 bytes per instruction into a straight-line body:
// datapath ops plus mask manipulation, no control flow.
func fuzzBody(data []byte) []isa.Instr {
	const maxInstrs = 48
	var body []isa.Instr
	for len(data) >= 4 && len(body) < maxInstrs {
		sel, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		switch sel % 16 {
		case 0:
			body = append(body, isa.SetMask(int(a)%fuzzRegs))
		case 1:
			body = append(body, isa.Unmask())
		case 2:
			body = append(body, isa.GetMask(int(a)%fuzzRegs))
		default:
			body = append(body, isa.Instr{
				Op: fuzzOps[int(sel)%len(fuzzOps)],
				A:  uint8(int(a) % fuzzRegs),
				B:  uint8(int(b) % fuzzRegs),
				C:  uint8(int(c) % fuzzRegs),
			})
		}
	}
	return body
}

// fuzzProgram wraps a body into an SPMD ensemble over fuzzVRFs register
// files, mirroring workloads.BuildProgram's address layout.
func fuzzProgram(spec *backends.Spec, body []isa.Instr) (isa.Program, []controlpath.VRFAddr) {
	addrs := make([]controlpath.VRFAddr, fuzzVRFs)
	var p isa.Program
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{
			RFH: uint8(v % spec.RFHsPerMPU),
			VRF: uint8(v / spec.RFHsPerMPU),
		}
		p = append(p, isa.Compute(int(addrs[v].RFH), int(addrs[v].VRF)))
	}
	p = append(p, body...)
	p = append(p, isa.Unmask(), isa.ComputeDone())
	return p, addrs
}

// fuzzRun executes prog on a fresh machine and returns its stats plus the
// full register window of every activated VRF.
func fuzzRun(t *testing.T, spec *backends.Spec, prog isa.Program, addrs []controlpath.VRFAddr,
	rc controlpath.RecipeCacheConfig, noTrace bool, seed int64) (*machine.Stats, [][]uint64) {
	t.Helper()
	m, err := machine.New(machine.Config{
		Spec: spec, Mode: machine.ModeMPU, NumMPUs: 1,
		ActiveVRFsOverride: 1, Recipe: rc, NoTrace: noTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatalf("lint-clean body rejected at load: %v\nprogram:\n%s", err, isa.Disassemble(prog))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, a := range addrs {
		for reg := 0; reg < fuzzRegs; reg++ {
			vals := make([]uint64, spec.Lanes)
			for l := range vals {
				vals[l] = rng.Uint64()
			}
			if err := m.WriteVector(0, a, reg, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("straight-line body faulted: %v\nprogram:\n%s", err, isa.Disassemble(prog))
	}
	var planes [][]uint64
	for _, a := range addrs {
		for reg := 0; reg < fuzzRegs; reg++ {
			vals, err := m.ReadVector(0, a, reg)
			if err != nil {
				t.Fatal(err)
			}
			planes = append(planes, vals)
		}
	}
	return st, planes
}

func checkJITParity(t *testing.T, data []byte) {
	t.Helper()
	body := fuzzBody(data)
	if len(body) == 0 {
		return
	}
	h := fnv.New64a()
	h.Write(data)
	seed := int64(h.Sum64() >> 1)
	recipes := []controlpath.RecipeCacheConfig{
		{}, // defaults: replay serves from a warm recipe table
		{CapacityMicroOps: 1, PointerTable: true, TemplateLookup: true}, // recipe-cold fallback
	}
	for _, spec := range []*backends.Spec{backends.RACER(), backends.SIMDRAM()} {
		prog, addrs := fuzzProgram(spec, body)
		if !lint.Lint(prog, lint.Options{Spec: spec}).Ok() {
			continue
		}
		for ri, rc := range recipes {
			jitStats, jitPlanes := fuzzRun(t, spec, prog, addrs, rc, false, seed)
			notraceStats, notracePlanes := fuzzRun(t, spec, prog, addrs, rc, true, seed)
			name := spec.Name
			if ri == 1 {
				name += "/recipe-cold"
			}
			requireParity(t, name, jitStats, notraceStats)
			for i := range jitPlanes {
				for l := range jitPlanes[i] {
					if jitPlanes[i][l] != notracePlanes[i][l] {
						t.Fatalf("%s: plane %d lane %d diverges: jit=%#x notrace=%#x\nprogram:\n%s",
							name, i, l, jitPlanes[i][l], notracePlanes[i][l], isa.Disassemble(prog))
					}
				}
			}
		}
	}
}

// jitSeedCorpus returns hand-shaped inputs covering the replay edge cases:
// mask churn, every datapath family, a playback-buffer spill (a body whose
// micro-op expansion exceeds the 1024-op playback capacity), and a
// single-instruction minimal body.
func jitSeedCorpus() [][]byte {
	instr := func(sel, a, b, c byte) []byte { return []byte{sel, a, b, c} }
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, ch := range chunks {
			out = append(out, ch...)
		}
		return out
	}
	// Mask churn interleaved with compares and logic (selector math: sel%16
	// picks the step kind, sel%len(fuzzOps) picks the datapath op).
	masky := cat(
		instr(5, 0, 1, 2),  // CMPEQ sets cond
		instr(0, 2, 0, 0),  // SETMASK
		instr(12, 0, 1, 3), // AND under mask
		instr(2, 4, 0, 0),  // GETMASK
		instr(1, 0, 0, 0),  // UNMASK
		instr(0, 4, 0, 0),  // SETMASK from saved mask
		instr(17, 1, 2, 5), // XOR
		instr(1, 0, 0, 0),
	)
	// Every selector value once: sweeps the full fuzzOps table.
	var sweep []byte
	for sel := byte(0); sel < 32; sel++ {
		sweep = append(sweep, instr(sel, sel, sel+1, sel+2)...)
	}
	// Playback spill: 40 word-width adds expand far past 1024 micro-ops
	// (sel 84 → datapath ADD).
	var spill []byte
	for i := byte(0); i < 40; i++ {
		spill = append(spill, instr(84, i%8, (i+1)%8, (i+2)%8)...)
	}
	return [][]byte{
		masky,
		sweep,
		spill,
		instr(7, 1, 2, 3), // minimal single-instruction body
	}
}

func FuzzJITParity(f *testing.F) {
	for _, s := range jitSeedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJITParity(t, data)
	})
}

// TestJITParityRandom drives the same oracle from a deterministic PRNG so
// plain `go test` exercises it without the fuzz engine.
func TestJITParityRandom(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < n; i++ {
		buf := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(buf)
		checkJITParity(t, buf)
	}
	for _, s := range jitSeedCorpus() {
		checkJITParity(t, s)
	}
}
