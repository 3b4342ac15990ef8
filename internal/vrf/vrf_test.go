package vrf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpu/internal/isa"
	"mpu/internal/micro"
	"mpu/internal/recipe"
)

func TestReadWriteWord(t *testing.T) {
	v := New(10)
	v.WriteWord(3, 7, 0xdeadbeefcafef00d)
	if got := v.ReadWord(3, 7); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadWord = %#x", got)
	}
	if got := v.ReadWord(3, 6); got != 0 {
		t.Fatalf("neighbour lane = %#x, want 0", got)
	}
}

func TestWriteRegZeroPads(t *testing.T) {
	v := New(8)
	v.WriteWord(0, 7, 99)
	v.WriteReg(0, []uint64{1, 2, 3})
	got := v.ReadReg(0)
	want := []uint64{1, 2, 3, 0, 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWriteRegOverflowPanics(t *testing.T) {
	v := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized WriteReg")
		}
	}()
	v.WriteReg(0, []uint64{1, 2, 3})
}

func TestRoundTripProperty(t *testing.T) {
	v := New(130)
	f := func(lane uint8, x uint64) bool {
		l := int(lane) % 130
		v.WriteWord(5, l, x)
		return v.ReadWord(5, l) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskLifecycle(t *testing.T) {
	v := New(4)
	if !v.MaskAny() || v.MaskPop() != 4 {
		t.Fatal("lanes not initially enabled")
	}
	v.WriteReg(0, []uint64{1, 0, 1, 0})
	v.SetMaskFromReg(0)
	if v.MaskPop() != 2 {
		t.Fatalf("MaskPop = %d, want 2", v.MaskPop())
	}
	bits := v.MaskBits()
	if !bits[0] || bits[1] || !bits[2] || bits[3] {
		t.Fatalf("MaskBits = %v", bits)
	}
	v.GetMaskInto(7)
	got := v.ReadReg(7)
	want := []uint64{1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GETMASK lane %d = %d, want %d", i, got[i], want[i])
		}
	}
	v.Unmask()
	if v.MaskPop() != 4 {
		t.Fatal("Unmask did not enable all lanes")
	}
}

func TestGetMaskBypassesGating(t *testing.T) {
	v := New(4)
	v.WriteReg(0, []uint64{0, 0, 0, 0})
	v.SetMaskFromReg(0) // all lanes disabled
	v.WriteWord(7, 1, ^uint64(0))
	v.GetMaskInto(7)
	// Every lane, including disabled ones, must now read 0 in r7.
	for l, got := range v.ReadReg(7) {
		if got != 0 {
			t.Fatalf("lane %d = %#x after GETMASK under empty mask", l, got)
		}
	}
}

func TestSetMaskFromCond(t *testing.T) {
	v := New(3)
	// Write cond through the CONDWR micro-op from a temp plane.
	v.WriteReg(0, []uint64{1, 0, 1})
	v.Exec(micro.Op{Kind: micro.COPY, Dst: micro.Temp(0), A: micro.Reg(0, 0)})
	v.Exec(micro.Op{Kind: micro.CONDWR, A: micro.Temp(0)})
	v.SetMaskFromCond()
	bits := v.MaskBits()
	if !bits[0] || bits[1] || !bits[2] {
		t.Fatalf("mask after SETMASK cond = %v", bits)
	}
	if !v.MaskAny() {
		t.Fatal("MaskAny false with lanes set")
	}
}

func TestCondWriteRespectsMask(t *testing.T) {
	v := New(2)
	v.WriteReg(0, []uint64{0, 1})
	v.SetMaskFromReg(0) // only lane 1 enabled
	// CONDWR from the constant-one plane: lane 0 disabled → cond 0.
	v.Exec(micro.Op{Kind: micro.CONDWR, A: micro.One()})
	cond := v.CondBits()
	if cond[0] || !cond[1] {
		t.Fatalf("cond = %v, want [false true]", cond)
	}
}

func TestExecMicroOps(t *testing.T) {
	v := New(2)
	v.WriteReg(0, []uint64{0b01, 0b11})
	v.WriteReg(1, []uint64{0b10, 0b11})
	v.Exec(micro.Op{Kind: micro.XOR, Dst: micro.Reg(2, 0), A: micro.Reg(0, 0), B: micro.Reg(1, 0)})
	v.Exec(micro.Op{Kind: micro.AND, Dst: micro.Reg(2, 1), A: micro.Reg(0, 1), B: micro.Reg(1, 1)})
	got := v.ReadReg(2)
	if got[0] != 0b01 || got[1] != 0b10 {
		t.Fatalf("micro-op results = %b, %b", got[0], got[1])
	}
	if v.MicroOps != 2 {
		t.Fatalf("MicroOps = %d, want 2", v.MicroOps)
	}
}

func TestWriteToConstantPlanePanics(t *testing.T) {
	v := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("writing the constant-one plane did not panic")
		}
	}()
	v.Exec(micro.Op{Kind: micro.COPY, Dst: micro.One(), A: micro.Zero()})
}

func TestCopyRegister(t *testing.T) {
	a, b := New(5), New(5)
	vals := []uint64{10, 20, 30, 40, 50}
	a.WriteReg(2, vals)
	CopyRegister(a, 2, b, 9)
	for l, got := range b.ReadReg(9) {
		if got != vals[l] {
			t.Fatalf("lane %d = %d, want %d", l, got, vals[l])
		}
	}
}

func TestCopyRegisterLaneMismatchPanics(t *testing.T) {
	a, b := New(5), New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lane mismatch")
		}
	}()
	CopyRegister(a, 0, b, 0)
}

func TestTouchedRegs(t *testing.T) {
	v := New(4)
	if got := v.TouchedRegs(); len(got) != 0 {
		t.Fatalf("fresh VRF touched regs = %v", got)
	}
	v.WriteWord(5, 0, 1)
	v.WriteWord(2, 0, 1)
	got := v.TouchedRegs()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("TouchedRegs = %v, want [2 5]", got)
	}
}

func TestBadConstructions(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { New(-3) },
		func() { v := New(2); v.ReadWord(64, 0) },
		func() { v := New(2); v.Exec(micro.Op{Kind: micro.Kind(99)}) },
		func() { v := New(2); v.Exec(micro.Op{Kind: micro.COPY, Dst: micro.Temp(0), A: micro.Temp(16)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkExecXor(b *testing.B) {
	v := New(4096)
	rng := rand.New(rand.NewSource(1))
	for l := 0; l < 4096; l++ {
		v.WriteWord(0, l, rng.Uint64())
		v.WriteWord(1, l, rng.Uint64())
	}
	op := micro.Op{Kind: micro.XOR, Dst: micro.Reg(2, 0), A: micro.Reg(0, 0), B: micro.Reg(1, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Exec(op)
	}
}

// BenchmarkRDIVStream times RACER's RDIV recipe — 127,296 micro-ops, 96.5%
// NOR — on a 64-lane VRF, the stream that dominates gcd's served Run. The
// "switch" arm is the interpreter's executor; the "nor" arm executes every
// micro-op as a masked NOR with no dispatch at all, which bounds what a
// dispatch-free interpreter could save on this stream (its result is
// discarded). Both report ns per micro-op.
func BenchmarkRDIVStream(b *testing.B) {
	_, rs, err := recipe.ExpandResolved(micro.NewCapabilitySet(micro.NOR), isa.RDiv(1, 2, 3))
	if err != nil {
		b.Fatal(err)
	}
	v := New(64)
	rng := rand.New(rand.NewSource(1))
	for l := 0; l < 64; l++ {
		v.WriteWord(1, l, rng.Uint64())
		v.WriteWord(2, l, rng.Uint64()|1)
	}
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs)), "ns/µop")
	}
	b.Run("switch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.ExecAllResolved(rs)
		}
		perOp(b)
	})
	b.Run("nor", func(b *testing.B) {
		ws := v.words
		for n := 0; n < b.N; n++ {
			m := ws[micro.SlotMask]
			for i := range rs {
				r := &rs[i]
				x := ^(ws[r.A] | ws[r.B])
				ws[r.Dst] = (ws[r.Dst] &^ m) | (x & m)
			}
		}
		perOp(b)
	})
}
