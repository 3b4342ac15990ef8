package trace

import "sync"

// ProgMemo caches JIT-compiled programs by step-stream content, so a body
// that is re-recorded — a pooled machine Reset between requests, the same
// binary reloaded, or the same body recorded by several cores — reuses the
// closure chain instead of lowering it again. Compilation allocates one or
// more closures per micro-op, which for wide-recipe bodies is thousands of
// allocations; the memo collapses that to a hash of the step stream plus a
// structural comparison.
//
// A compiled Prog is a pure function of the step stream and the lane
// geometry: it pre-binds word-directory indices and expansion contents, and
// charges nothing. That is exactly the contract the machine's
// recipe-expansion memo relies on to survive Machine.Reset, and ProgMemo
// survives it the same way — reuse changes no statistic, only wall-clock
// and allocations (pinned by TestResetReuseMatchesFresh and
// TestProgMemoReuse).
//
// Lookup and install take a mutex: cores on the parallel scheduler may
// record the same body concurrently. A race between two compilers of the
// same stream at worst compiles twice and keeps the first entry; both
// results behave identically.
type ProgMemo struct {
	mu sync.Mutex
	m  map[uint64][]memoEntry
}

type memoEntry struct {
	lanes int
	steps []Step
	prog  *Prog
}

// NewProgMemo returns an empty memo.
func NewProgMemo() *ProgMemo { return &ProgMemo{m: map[uint64][]memoEntry{}} }

// Compile returns the JIT program for the trace's step stream, lowering it
// at most once per distinct (stream, lanes) pair (nil only for a nil trace).
func (pm *ProgMemo) Compile(t *Trace, lanes int) *Prog {
	if t == nil {
		return nil
	}
	h := hashSteps(t.Steps, lanes)
	pm.mu.Lock()
	for _, e := range pm.m[h] {
		if e.lanes == lanes && stepsEqual(e.steps, t.Steps) {
			pm.mu.Unlock()
			return e.prog
		}
	}
	pm.mu.Unlock()
	p := CompileJIT(t, lanes)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, e := range pm.m[h] {
		if e.lanes == lanes && stepsEqual(e.steps, t.Steps) {
			return e.prog // lost the race; keep the first entry
		}
	}
	pm.m[h] = append(pm.m[h], memoEntry{lanes: lanes, steps: t.Steps, prog: p})
	return p
}

// hashSteps is FNV-1a over every field the compiler reads, so equal streams
// collide by construction and unequal ones are separated before the
// structural comparison runs.
func hashSteps(steps []Step, lanes int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(lanes))
	for i := range steps {
		s := &steps[i]
		mix(uint64(s.Kind))
		mix(uint64(s.Arg))
		for _, op := range s.Ops {
			mix(uint64(op.Kind))
			mix(uint64(op.Dst) | uint64(op.Dst2)<<16 | uint64(op.A)<<32 | uint64(op.B)<<48)
			mix(uint64(op.C))
		}
	}
	return h
}

// stepsEqual is the structural comparison backing the memo: hash collisions
// between distinct streams must never alias two programs.
func stepsEqual(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Arg != b[i].Arg || len(a[i].Ops) != len(b[i].Ops) {
			return false
		}
		for j := range a[i].Ops {
			if a[i].Ops[j] != b[i].Ops[j] {
				return false
			}
		}
	}
	return true
}
