// Rewind tests live in the external test package for the same reason the
// Reset tests do: they drive the machine through internal/workloads.
package machine_test

import (
	"bytes"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// warmMachine builds a machine for the given engine flag, runs sobelx on it
// once (recording traces and warming the recipe table), and returns it with
// its config. sobelx is straight-line and fits both the playback buffer and
// the recipe table, so every later round of a rewound run replays.
func warmMachine(t testing.TB, noTrace bool, vrfs int) *machine.Machine {
	t.Helper()
	spec := backends.RACER()
	cfg := workloads.RunConfig{
		Spec: spec, Mode: machine.ModeMPU, Seed: 1,
		TotalElements: spec.BaselineUnits * spec.Lanes * vrfs,
		MaxSimVRFs:    vrfs, ActiveVRFsOverride: 1, Workers: 1, NoTrace: noTrace,
	}
	m, err := machine.New(workloads.MachineConfigFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.RunOn(m, workloads.ByName("sobelx"), cfg); err != nil {
		t.Fatal(err)
	}
	return m
}

func rewindRun(t testing.TB, m *machine.Machine) *machine.Stats {
	t.Helper()
	m.Rewind()
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRewindSteadyState pins the resident-kernel regime Rewind models: the
// rewound run decodes against a warm recipe table and replays the traces
// the first run recorded — every round a hit, every replay through the
// closure chain compiled during the first run (no new lowering) — and the
// regime is a fixed point: a second rewound run reproduces the first's
// stats byte for byte. The engines must also agree in steady state exactly
// as they do cold (strategy counters aside).
func TestRewindSteadyState(t *testing.T) {
	const vrfs = 32
	jit := warmMachine(t, false, vrfs)
	w1 := rewindRun(t, jit)

	if w1.TraceMisses != 0 {
		t.Errorf("steady-state run recorded %d trace misses, want 0", w1.TraceMisses)
	}
	if w1.TraceHits == 0 {
		t.Error("steady-state run replayed no rounds from traces")
	}
	if w1.JITCompiles != 0 {
		t.Errorf("steady-state run lowered %d bodies; compilation belongs to the first run", w1.JITCompiles)
	}
	if w1.JITReplays == 0 {
		t.Error("steady-state run executed no compiled replays")
	}
	if w1.JITReplays != w1.TraceHits {
		t.Errorf("%d JIT replays for %d trace hits; every replayed round runs a chain", w1.JITReplays, w1.TraceHits)
	}

	w2 := rewindRun(t, jit)
	if b1, b2 := statsBytes(t, w1), statsBytes(t, w2); !bytes.Equal(b1, b2) {
		t.Errorf("steady state is not a fixed point:\nrun1: %s\nrun2: %s", b1, b2)
	}

	notrace := rewindRun(t, warmMachine(t, true, vrfs))
	requireParity(t, "sobelx-rewound", w1, notrace)
}

// TestReplayAllocsEngineInvariant is the allocation regression guard for
// the replay hot loop: a rewound run's allocations on the replay engine are
// the phase scheduler's per-round batching and nothing else, and the plain
// interpreter allocates strictly more (per-round interpretation work the
// trace engine exists to eliminate), so it bounds the replay engine from
// above. trace.TestProgRunDoesNotAllocate pins the closure chains
// themselves at exactly zero allocations, so a chain that allocated per
// replayed round (a slice header, a boxed interface, a deferred mask copy)
// fails there even when this bound still holds.
func TestReplayAllocsEngineInvariant(t *testing.T) {
	const vrfs = 32
	measure := func(noTrace bool) float64 {
		m := warmMachine(t, noTrace, vrfs)
		return testing.AllocsPerRun(10, func() {
			m.Rewind()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if jit, notrace := measure(false), measure(true); jit > notrace {
		t.Errorf("replay allocates more than full interpretation: jit=%v notrace=%v", jit, notrace)
	}
}
