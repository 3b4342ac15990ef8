package vrf

import (
	"fmt"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// The trace JIT's execution substrate: a resolved micro-op stream is
// lowered, once, into a chain of fused closures over the single-word
// directory of a 64-lane VRF. micro.Runs segments the stream into maximal
// same-kind runs; each run compiles to one closure whose loop body is that
// kind's merge expression with the operand slots pre-packed into flat
// arrays, so replay executes the whole stream with zero per-op kind
// dispatch, no plane resolution, and no allocation. Every closure carries a
// masked and an unmasked loop and picks between them by inspecting the
// mask word at entry — legal because no micro-op writes the mask plane, so
// the mask is constant across the stream. Wider geometries replay through
// ExecAllResolved, whose slab kernels already amortize dispatch over
// several words per plane.

// CompiledExec is one resolved stream lowered to a fused closure chain for
// 64-lane VRFs. Compile with CompileResolved; execute with
// (*VRF).RunCompiled.
type CompiledExec struct {
	k64 []kern64
	n   uint64 // micro-ops per execution (MicroOps accounting)
}

// kern64 executes one fused run over a single-word directory under mask m.
type kern64 func(ws []uint64, m uint64)

// Ops reports the number of micro-ops one execution simulates.
func (c *CompiledExec) Ops() uint64 { return c.n }

// CompileResolved lowers a resolved stream for 64-lane VRFs. It returns nil
// for any other lane count — the caller's signal to replay the stream
// through ExecAllResolved — and panics on a micro-op kind it does not know,
// exactly as the interpreting executor does.
func CompileResolved(rs []micro.ResolvedOp, lanes int) *CompiledExec {
	if lanes != isa.WordBits {
		return nil
	}
	c := &CompiledExec{n: uint64(len(rs))}
	for _, run := range micro.Runs(rs) {
		c.k64 = append(c.k64, compileRun64(run.Kind, rs[run.Start:run.Start+run.Len]))
	}
	return c
}

// RunCompiled executes a compiled stream over the flat word directory with
// the same semantics (and MicroOps accounting) as ExecAllResolved on the
// stream it was compiled from.
func (v *VRF) RunCompiled(c *CompiledExec) {
	if v.lanes != isa.WordBits {
		panic("vrf: compiled stream executed on a VRF of different lane count")
	}
	ws := v.words
	m := ws[micro.SlotMask]
	for _, k := range c.k64 {
		k(ws, m)
	}
	v.MicroOps += c.n
}

// packSlots extracts one operand column of a run into a flat array.
func packSlots(ops []micro.ResolvedOp, get func(*micro.ResolvedOp) micro.Slot) []micro.Slot {
	out := make([]micro.Slot, len(ops))
	for i := range ops {
		out[i] = get(&ops[i])
	}
	return out
}

// compileRun64 builds the single-word closure for one same-kind run. Each
// loop below is the corresponding execResolved64 case unrolled across the
// run, with an unmasked variant selected when every lane is enabled.
func compileRun64(kind micro.Kind, ops []micro.ResolvedOp) kern64 {
	d := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst })
	a := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.A })
	switch kind {
	case micro.NOR:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ^(ws[a[i]] | ws[b[i]])
				}
				return
			}
			for i, di := range d {
				x := ^(ws[a[i]] | ws[b[i]])
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.AND:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] & ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] & ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.OR:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] | ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] | ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.XOR:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]] ^ ws[b[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]] ^ ws[b[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.NOT:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ^ws[a[i]]
				}
				return
			}
			for i, di := range d {
				x := ^ws[a[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.COPY:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = ws[a[i]]
				}
				return
			}
			for i, di := range d {
				x := ws[a[i]]
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.MAJ:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
					ws[di] = (aw & bw) | (bw & cw) | (aw & cw)
				}
				return
			}
			for i, di := range d {
				aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
				x := (aw & bw) | (bw & cw) | (aw & cw)
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.MUX:
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					ws[di] = (ws[a[i]] & ws[cc[i]]) | (ws[b[i]] &^ ws[cc[i]])
				}
				return
			}
			for i, di := range d {
				x := (ws[a[i]] & ws[cc[i]]) | (ws[b[i]] &^ ws[cc[i]])
				ws[di] = (ws[di] &^ m) | (x & m)
			}
		}
	case micro.FADD:
		d2 := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.Dst2 })
		b := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.B })
		cc := packSlots(ops, func(r *micro.ResolvedOp) micro.Slot { return r.C })
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for i, di := range d {
					aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
					ws[di] = aw ^ bw ^ cw
					ws[d2[i]] = (aw & bw) | (bw & cw) | (aw & cw)
				}
				return
			}
			for i, di := range d {
				aw, bw, cw := ws[a[i]], ws[b[i]], ws[cc[i]]
				s := aw ^ bw ^ cw
				co := (aw & bw) | (bw & cw) | (aw & cw)
				ws[di] = (ws[di] &^ m) | (s & m)
				d2i := d2[i]
				ws[d2i] = (ws[d2i] &^ m) | (co & m)
			}
		}
	case micro.SET0:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for _, di := range d {
					ws[di] = 0
				}
				return
			}
			for _, di := range d {
				ws[di] &^= m
			}
		}
	case micro.SET1:
		return func(ws []uint64, m uint64) {
			if m == ^uint64(0) {
				for _, di := range d {
					ws[di] = ^uint64(0)
				}
				return
			}
			for _, di := range d {
				ws[di] |= m
			}
		}
	case micro.CONDWR:
		return func(ws []uint64, m uint64) {
			for i := range a {
				ws[micro.SlotCond] = ws[a[i]] & m
			}
		}
	case micro.MASKRD:
		return func(ws []uint64, m uint64) {
			for _, di := range d {
				ws[di] = m
			}
		}
	}
	panic(fmt.Sprintf("vrf: unknown micro-op kind %d", kind))
}
