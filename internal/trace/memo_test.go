package trace

import "testing"

// TestProgMemoReuse pins the memo contract: structurally equal step streams
// share one compiled program (pointer-identical), while a different lane
// geometry or a different stream compiles separately.
func TestProgMemoReuse(t *testing.T) {
	pm := NewProgMemo()

	a, b := jitBody(), jitBody() // equal content, distinct backing arrays
	pa := pm.Compile(a, 64)
	if pa == nil {
		t.Fatal("CompileJIT declined a straight-line body at 64 lanes")
	}
	if pb := pm.Compile(b, 64); pb != pa {
		t.Fatalf("structurally equal streams compiled to distinct programs: %p vs %p", pa, pb)
	}

	wide := pm.Compile(a, 256)
	if wide == nil {
		t.Fatal("CompileJIT declined the same body at 256 lanes")
	}
	if wide == pa {
		t.Fatal("lane geometries 64 and 256 shared one compiled program")
	}

	c := jitBody()
	c.Steps[0].Ops[0].Dst++ // same shape, different operand slot
	if pc := pm.Compile(c, 64); pc == pa {
		t.Fatal("distinct streams aliased one compiled program")
	}

	// 48 lanes has no flat word directory; its chain binds the reference
	// executor and is memoized like any other.
	ragged := pm.Compile(a, 48)
	if ragged == nil || ragged == pa || ragged == wide {
		t.Fatalf("48-lane program %p must be distinct and non-nil (64: %p, 256: %p)", ragged, pa, wide)
	}
	if p := pm.Compile(b, 48); p != ragged {
		t.Fatalf("memoized 48-lane program not reused: %p vs %p", ragged, p)
	}

	if p := pm.Compile(nil, 64); p != nil {
		t.Fatalf("nil trace compiled to %p", p)
	}
}
