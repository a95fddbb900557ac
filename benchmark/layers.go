package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
)

// Direct measurements of the layers that a job-level span cannot
// separate: the front end, the planners, the noise layer's own time
// and the engine's fixed cost per job. Each is the median of a fixed
// number of repetitions, on the workload's own inputs.

const microReps = 21

// medianUs times f microReps times and returns the median in µs.
func medianUs(f func() error) (float64, error) {
	xs := make([]float64, 0, microReps)
	for i := 0; i < microReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start))/1e3)
	}
	return median(xs), nil
}

func microbench(rep *report, w workload, in *inputs) error {
	type step struct {
		name string
		f    func() error
	}
	steps := []step{
		{"qasm.write_us", func() error { _, err := qasm.Write(in.circ); return err }},
		{"qasm.parse_us", func() error { _, err := qasm.Parse(w.Name, in.src); return err }},
		{"circuit.moments_us", func() error { circuit.Moments(in.circ); return nil }},
		{"stochastic.plan_chunks_us", func() error {
			_, err := stochastic.PlanChunks(stochastic.Job{Circuit: in.circ, Model: in.model, Opts: in.opts})
			return err
		}},
	}
	if in.model.Extended() {
		// Only extended models are compiled to a plan; the uniform
		// model's hot path never calls Compile, so its cost reads 0.
		steps = append(steps, step{"noise.compile_us", func() error { _, err := in.model.Compile(in.circ); return err }})
	}
	if w.Service {
		// ddsimd compiles a backend for every job; no traced job exists to
		// take the figure from, so compile (and retire) one directly.
		steps = append(steps, step{"backend.compile_us", func() error {
			b, err := in.factory(in.circ)
			if r, ok := b.(sim.Releaser); ok && err == nil {
				r.Release()
			}
			return err
		}})
	}
	// The engine's fixed cost per job: one trajectory of a one-gate
	// circuit through RunContext (validate, plan, spawn, compile,
	// checkpoint analysis, reduce).
	empty := circuit.New("empty", 1)
	empty.H(0)
	steps = append(steps, step{"stochastic.empty_job_us", func() error {
		_, err := stochastic.RunContext(context.Background(), empty, in.factory, in.model,
			stochastic.Options{Runs: 1, Workers: 1, Seed: in.opts.Seed})
		return err
	}})
	for _, s := range steps {
		us, err := medianUs(s.f)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		rep.set(s.name, us)
	}
	return noiseSelf(rep, in)
}

// noiseSelfPasses is how many noisy passes over the circuit the noise
// layer's self time is averaged over.
const noiseSelfPasses = 50

// noiseSelf measures the noise layer's own time per gate: it replays
// the trajectory loop's calls into the noise layer (Model.
// ApplyAfterGate on the uniform path, OpNoise.ApplyPre/ApplyPost on
// the planned one) on a traced backend, times only those calls, and
// subtracts the backend spans they caused.
func noiseSelf(rep *report, in *inputs) error {
	tr := newTracer()
	jt := tr.beginJob(1, false)
	b, err := jt.factory(in.factory)(in.circ)
	if err != nil {
		return err
	}
	core := jt.backends[0]
	var plan *noise.Plan // nil on the uniform path, as in the engine
	if in.model.Extended() {
		if plan, err = in.model.Compile(in.circ); err != nil {
			return err
		}
	}
	var counts noise.ChannelCounts
	// Like the engine, resolve each op's qubit list once, outside the loop.
	qubits := make([][]int, len(in.circ.Ops))
	for i := range in.circ.Ops {
		qubits[i] = in.circ.Ops[i].Qubits()
	}
	rng := rand.New(rand.NewSource(in.opts.Seed))
	var noiseNs, spanNs, gates int64
	for pass := 0; pass < noiseSelfPasses; pass++ {
		b.Reset()
		for i := range in.circ.Ops {
			op := &in.circ.Ops[i]
			if op.Kind != circuit.KindGate {
				continue
			}
			gates++
			on := plan.At(i)
			if on != nil {
				s0, t0 := core.sumNs, tr.now()
				on.ApplyPre(b, rng, &counts)
				noiseNs += tr.now() - t0
				spanNs += core.sumNs - s0
			}
			b.ApplyOp(i)
			s0, t0 := core.sumNs, tr.now()
			if plan == nil {
				in.model.ApplyAfterGate(b, qubits[i], rng)
			} else if on != nil {
				on.ApplyPost(b, rng, &counts)
			}
			noiseNs += tr.now() - t0
			spanNs += core.sumNs - s0
		}
	}
	if r, ok := b.(sim.Releaser); ok {
		r.Release()
	}
	rep.set("noise.self_ns_per_gate", ratio(float64(noiseNs-spanNs), float64(gates)))
	return nil
}
