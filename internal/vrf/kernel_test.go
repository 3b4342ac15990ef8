package vrf

import (
	"math/rand"
	"testing"

	"mpu/internal/micro"
)

// randResolved builds a random but well-formed resolved stream: every kind,
// destinations never a constant or the mask plane, FADD outputs distinct.
func randResolved(n int, rng *rand.Rand) []micro.ResolvedOp {
	kinds := []micro.Kind{
		micro.NOR, micro.AND, micro.OR, micro.XOR, micro.NOT, micro.COPY,
		micro.MAJ, micro.MUX, micro.FADD, micro.SET0, micro.SET1,
		micro.CONDWR, micro.MASKRD,
	}
	// Writable slots: register bits, scratch bits, temps, cond.
	writable := func() micro.Slot {
		return micro.Slot(rng.Intn(int(micro.SlotCond) + 1))
	}
	// Readable slots additionally include the constant planes.
	readable := func() micro.Slot {
		s := micro.Slot(rng.Intn(int(micro.SlotOne) + 1))
		return s
	}
	out := make([]micro.ResolvedOp, n)
	for i := range out {
		r := micro.ResolvedOp{
			Kind: kinds[rng.Intn(len(kinds))],
			Dst:  writable(), A: readable(), B: readable(), C: readable(),
		}
		if r.Kind == micro.FADD {
			r.Dst2 = writable()
			for r.Dst2 == r.Dst {
				r.Dst2 = writable()
			}
		}
		out[i] = r
	}
	return out
}

// randomize fills every plane of the directory with random words, clears
// tail bits (none exist: lanes%64==0), and restores the constant planes and
// a chosen mask.
func randomize(v *VRF, rng *rand.Rand, maskedLanes bool) {
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	zero := int(micro.SlotZero) * v.wpl
	one := int(micro.SlotOne) * v.wpl
	mask := int(micro.SlotMask) * v.wpl
	for i := 0; i < v.wpl; i++ {
		v.words[zero+i] = 0
		v.words[one+i] = ^uint64(0)
		if maskedLanes {
			v.words[mask+i] = rng.Uint64()
		} else {
			v.words[mask+i] = ^uint64(0)
		}
	}
}

// The compiled closure chain must reproduce the interpreting executor's
// directory bit for bit, masked and unmasked.
func TestCompiledExecMatchesInterpreter(t *testing.T) {
	const lanes = 64
	rng := rand.New(rand.NewSource(21))
	for _, masked := range []bool{false, true} {
		for trial := 0; trial < 20; trial++ {
			rs := randResolved(1+rng.Intn(60), rng)
			c := CompileResolved(rs, lanes)
			if c == nil {
				t.Fatal("CompileResolved returned nil for a well-formed stream")
			}
			if c.Ops() != uint64(len(rs)) {
				t.Fatalf("Ops() = %d, want %d", c.Ops(), len(rs))
			}
			vi, vj := New(lanes), New(lanes)
			seed := rng.Int63()
			randomize(vi, rand.New(rand.NewSource(seed)), masked)
			randomize(vj, rand.New(rand.NewSource(seed)), masked)

			vi.ExecAllResolved(rs)
			vj.RunCompiled(c)

			if vi.MicroOps != vj.MicroOps {
				t.Fatalf("masked=%v: MicroOps %d vs %d", masked, vi.MicroOps, vj.MicroOps)
			}
			for w := range vi.words {
				if vi.words[w] != vj.words[w] {
					t.Fatalf("masked=%v trial=%d: word %d: interp=%#x jit=%#x",
						masked, trial, w, vi.words[w], vj.words[w])
				}
			}
		}
	}
}

// The fused kernels serve the single-word geometry only: ragged lane counts
// (no word directory) and multi-word slabs (replayed through
// ExecAllResolved) must both decline.
func TestCompileResolvedRejectsRaggedLanes(t *testing.T) {
	rs := randResolved(4, rand.New(rand.NewSource(3)))
	for _, lanes := range []int{1, 63, 65, 100, 128, 256} {
		if CompileResolved(rs, lanes) != nil {
			t.Errorf("lanes=%d: compiled for a geometry other than 64 lanes", lanes)
		}
	}
	if CompileResolved(rs, 0) != nil || CompileResolved(rs, -64) != nil {
		t.Error("compiled for a non-positive lane count")
	}
}

// A compiled stream must never allocate during execution — the replay hot
// loop runs millions of times per simulation.
func TestRunCompiledDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := CompileResolved(randResolved(64, rng), 64)
	v := New(64)
	randomize(v, rng, true)
	if n := testing.AllocsPerRun(100, func() { v.RunCompiled(c) }); n != 0 {
		t.Errorf("RunCompiled allocates %v times per run", n)
	}
}

func TestRunCompiledLaneMismatchPanics(t *testing.T) {
	c := CompileResolved(randResolved(2, rand.New(rand.NewSource(9))), 64)
	v := New(128)
	defer func() {
		if recover() == nil {
			t.Error("no panic executing a 64-lane stream on a 128-lane VRF")
		}
	}()
	v.RunCompiled(c)
}
