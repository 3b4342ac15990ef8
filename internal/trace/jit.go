package trace

import (
	"fmt"

	"mpu/internal/vrf"
)

// JIT compilation: when the machine first replays an installed Trace, it
// lowers the step stream once into a Prog — a flat chain of closures with
// everything a step interpreter would resolve per step (step kinds, mask
// register operands, and on 64-lane VRFs the operand directory indices,
// lane-mask merges and plane aliasing) pre-bound at compile time. Replaying
// a round is then a tight loop of direct calls with zero allocation.
//
// The lane count picks each exec step's body. On the 64-lane geometry the
// stream becomes a vrf.CompiledExec fused-run kernel; every other geometry
// (the multi-word slabs of 256-lane back ends, and the ragged lane counts
// tests use) binds the reference executor, ExecAllResolved, whose slab
// kernels already amortize dispatch over several words per plane. Either
// way the Prog touches the same words the interpreter would, in the same
// order, under the same mask.

// Prog is a JIT-compiled body: the closure chain every replayed round runs.
type Prog struct {
	steps []func(v *vrf.VRF)
	ops   uint64 // total micro-ops per execution, across all exec steps
}

// CompileJIT lowers a compiled trace for VRFs of the given lane count. It
// returns nil only for a nil trace. A step kind no recorder produces panics
// here; an unknown micro-op kind panics here on 64 lanes and on the first
// Run elsewhere, as the reference executor does.
func CompileJIT(t *Trace, lanes int) *Prog {
	if t == nil {
		return nil
	}
	p := &Prog{steps: make([]func(v *vrf.VRF), 0, len(t.Steps))}
	for i := range t.Steps {
		s := &t.Steps[i]
		switch s.Kind {
		case StepExec:
			p.ops += uint64(len(s.Ops))
			if c := vrf.CompileResolved(s.Ops, lanes); c != nil {
				p.steps = append(p.steps, func(v *vrf.VRF) { v.RunCompiled(c) })
				continue
			}
			ops := s.Ops
			p.steps = append(p.steps, func(v *vrf.VRF) { v.ExecAllResolved(ops) })
		case StepSetMaskCond:
			p.steps = append(p.steps, (*vrf.VRF).SetMaskFromCond)
		case StepSetMaskReg:
			r := int(s.Arg)
			p.steps = append(p.steps, func(v *vrf.VRF) { v.SetMaskFromReg(r) })
		case StepUnmask:
			p.steps = append(p.steps, (*vrf.VRF).Unmask)
		case StepGetMask:
			r := int(s.Arg)
			p.steps = append(p.steps, func(v *vrf.VRF) { v.GetMaskInto(r) })
		default:
			panic(fmt.Sprintf("trace: unknown step kind %d", s.Kind))
		}
	}
	return p
}

// Run applies the compiled body to one activated VRF.
func (p *Prog) Run(v *vrf.VRF) {
	for _, s := range p.steps {
		s(v)
	}
}

// Ops reports the micro-ops one execution simulates (accounting
// cross-check; equals the trace's MicroOpsPerVRF).
func (p *Prog) Ops() uint64 { return p.ops }
