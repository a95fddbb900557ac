package stochastic

// First-event forking (the paper's performance story taken to its
// end): stochastic trajectories of the same noisy circuit are identical
// until their first probabilistic event fires. Every roll before — and
// between — events is a draw against a fixed threshold, so the engine
// analyses the noise-free circuit once per job — the reference path and
// the rolls along it — and a trajectory does not roll them one by one:
// it draws the position of its next fired roll by inversion from the
// path's cumulative hazard table (one uniform and a binary search),
// brings the backend there, fires, and draws the next position. A
// trajectory costs O(events), and one without any event is a single
// draw.
//
// Bringing the backend there is the only difference between the two
// ways a trajectory runs. Forked (a sim.Forker backend): the worker
// walked the path once and kept a few snapshots, so the first event
// restores the nearest one and replays the few unitaries up to the
// fired op; a trajectory without an event restores the path's final
// state and goes straight to sampling. Replayed (a backend that cannot
// fork, or a path without unitaries): Reset and apply the path's
// unitaries from the start. Between events both apply the path's bare
// unitaries.
//
// The path ends where a draw would need the state: at the first
// measurement or reset, or at the first exact-channel damping (whose
// branch probability is γ·P(qubit = 1)). Behind it the trajectory
// rolls, measures and resets op by op (runRange), noisy or not.
//
// Bit-exactness: forked and replayed trajectories are one function
// (ckptRunner.run) making the same draws, and a restored state is the
// product of the identical operation sequence. Same-seed results are
// therefore bit-identical forked or replayed, wherever the backend's
// rounding depends neither on its history nor on where a run of gates
// starts; the differential tests in checkpoint_test.go
// (TestCheckpointedMatchesPlainSameSeed) enforce this against a
// backend wrapper that hides sim.Forker. The DD backend applies runs
// of gates as block products, and a forked trajectory's runs start at
// its snapshot, a replayed one's at op 0, so on dd the two agree to
// rounding (TestForkedMatchesReplay).

import (
	"math"
	"math/rand"
	"sort"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/telemetry"
)

// Per-worker bounds on retained states. A worker keeps at most
// maxRefSnapshots evenly spaced snapshots of the reference path —
// fewer when their summed sim.StateSizer cost would pass
// maxSnapshotBytes — and replays the unitaries in between, so dense
// backends pay a handful of amplitude copies, not one per gate.
const (
	maxRefSnapshots  = 8
	maxSnapshotBytes = 256 << 20
)

// roll is one state-independent draw of the reference path: channel ch
// (of the sequence Pre‖Post‖Post2) of gate op fires with probability
// thr.
type roll struct {
	thr float64
	op  int32
	ch  int32
	// need is the number of reference-path unitaries a trajectory that
	// fires here has behind it: the op's own is included for a
	// post-gate channel, pending for an idle one.
	need int32
}

// certainHazard stands in for the infinite hazard of a roll that always
// fires. The largest exponential nextFire can draw from a 53-bit
// uniform is 53·ln 2 ≈ 36.7, so no trajectory gets past such a roll,
// and the table stays finite for the rolls behind it.
const certainHazard = 64

// refPath is the reference-path analysis of one (circuit, noise-model)
// job: which unitaries every trajectory shares between its events, the
// flat list of rolls along them, and where the path ends. Read-only
// once built, so a job's workers share it.
type refPath struct {
	// plan is the job's compiled noise, the channels the rolls came from
	// and the trajectory's tail samples. Nil when the job is noise-free.
	plan *noise.Plan
	// gates lists the op indices of the path's unitaries in execution
	// order; conditions are evaluated against the all-zero classical
	// register, which is exact on the path: classical bits only change
	// at measurements, and the first one ends it.
	gates []int
	rolls []roll
	// hazard[j] is Σ −ln(1 − thr) over rolls[:j]: the rolls are
	// independent, so a trajectory standing before roll i passes
	// rolls[i:j] without a fire with probability
	// exp(hazard[i] − hazard[j]). A sum, not the survival product, so
	// that a long path cannot underflow it.
	hazard []float64
	// channels counts the rolls per telemetry label: what one
	// trajectory samples along the path.
	channels noise.ChannelCounts
	// endOp/endCh is the first position off the path: channel endCh of
	// op endOp is state-dependent, or endCh is 0 and endOp is the first
	// measurement or reset (len(Ops) when the path covers the circuit).
	endOp, endCh int
}

// worthwhile reports whether forking can save any gate applications,
// which decides whether a job on a sim.Forker backend forks: only the
// path's unitaries are shared, so a path without any has nothing to
// fork.
func (p *refPath) worthwhile() bool {
	return len(p.gates) > 0
}

// planRefPath walks a job's ops until a draw would depend on the
// state. plan is the compiled channel plan; an empty one — a model
// whose channels all vanished on this circuit — is noise-free.
func planRefPath(c *circuit.Circuit, plan *noise.Plan) *refPath {
	if plan.Empty() {
		plan = nil
	}
	p := &refPath{plan: plan, endOp: len(c.Ops)}
	var buf []noise.Roll
	add := func(op, ch0 int, rs []noise.Roll) {
		for k, r := range rs {
			p.rolls = append(p.rolls, roll{thr: r.Threshold, op: int32(op), ch: int32(ch0 + k), need: int32(len(p.gates))})
			p.channels[r.Label]++
		}
	}
walk:
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil && !op.Cond.Holds(0) {
			continue // deterministically skipped on the path
		}
		switch op.Kind {
		case circuit.KindGate:
			on := plan.At(i)
			if on == nil {
				p.gates = append(p.gates, i)
				continue
			}
			buf = on.Rolls(buf[:0])
			pre := min(len(buf), len(on.Pre))
			add(i, 0, buf[:pre])
			if pre == len(on.Pre) {
				// Every idle channel is on the path, so the unitary is too.
				p.gates = append(p.gates, i)
				add(i, pre, buf[pre:])
			}
			if len(buf) < on.Len() {
				p.endOp, p.endCh = i, len(buf)
				break walk
			}
		case circuit.KindMeasure, circuit.KindReset:
			p.endOp = i
			break walk
		}
	}
	p.hazard = hazardTable(p.rolls)
	return p
}

// hazardTable returns the cumulative hazard of rolls (refPath.hazard).
func hazardTable(rolls []roll) []float64 {
	h := make([]float64, len(rolls)+1)
	for j, ro := range rolls {
		h[j+1] = h[j] + min(-math.Log1p(-ro.thr), certainHazard)
	}
	return h
}

// nextFire draws the index of the first roll at or behind from that
// fires on this trajectory, len(p.rolls) when none does: an exponential
// variate is how much hazard the trajectory survives. It draws nothing
// when no roll is left.
func (p *refPath) nextFire(rng *rand.Rand, from int) int {
	left := len(p.rolls) - from
	if left == 0 {
		return from
	}
	limit := p.hazard[from] - math.Log1p(-rng.Float64())
	return from + sort.Search(left, func(i int) bool { return p.hazard[from+i+1] > limit })
}

// fire applies the event of roll j, given that it fired. The channel's
// own draw is uniform below its threshold: the product of a float below
// 1 and thr rounds to below thr, so the event always selects one of the
// channel's branches.
func (p *refPath) fire(j int, b sim.Backend, rng *rand.Rand) {
	ro := &p.rolls[j]
	p.plan.At(int(ro.op)).Fire(int(ro.ch), rng.Float64()*ro.thr, b, rng)
}

// ckptStats accumulates the checkpointing effect of one work chunk;
// the engine flushes it into the process telemetry per chunk.
type ckptStats struct {
	applied int // gate applications executed
	skipped int // gate applications avoided via restores
}

// refSnap is one snapshot of the reference path: the state after its
// first gates unitaries.
type refSnap struct {
	gates int
	state sim.State
}

// ckptRunner executes the trajectories of one job on one worker's
// backend, forking from the reference path when forker is set and
// replaying it otherwise. It is single-goroutine, like the backend it
// drives.
type ckptRunner struct {
	backend sim.Backend
	forker  sim.Forker     // nil: every trajectory replays the path
	sizer   sim.StateSizer // nil when the backend cannot report cost
	circ    *circuit.Circuit
	path    *refPath

	snaps []refSnap // reference-path snapshots, ascending

	retainedNodes int64
	retainedBytes int64
}

// newCkptRunner prepares a worker's trajectory runner. With a forker it
// walks the reference path on the worker's backend and keeps its
// snapshots. It returns the runner and the number of gate applications
// the construction executed (the engine feeds that into the gate
// telemetry).
func newCkptRunner(backend sim.Backend, forker sim.Forker, c *circuit.Circuit, path *refPath) (*ckptRunner, int) {
	r := &ckptRunner{backend: backend, forker: forker, circ: c, path: path}
	if forker == nil {
		return r, 0
	}
	r.sizer, _ = backend.(sim.StateSizer)
	return r, r.takeSnapshots(maxSnapshotBytes)
}

// takeSnapshots walks the reference path once and keeps its snapshots.
// The first one — the state at the first roll, or the path's end when
// nothing is rolled — is what every trajectory can fork from and is
// always taken. Its cost sizes the rest: as many as fit into budget
// bytes, at most maxRefSnapshots in all, evenly spaced back from the
// path's end (which every trajectory without an event restores).
func (r *ckptRunner) takeSnapshots(budget int64) (applied int) {
	gates := r.path.gates
	walkTo := func(g int) {
		for _, op := range gates[applied:g] {
			r.backend.ApplyOp(op)
		}
		applied = g
	}
	base := len(gates)
	if len(r.path.rolls) > 0 {
		base = int(r.path.rolls[0].need)
	}
	r.backend.Reset()
	walkTo(base)
	r.keep(base, math.MaxInt64)
	n := maxRefSnapshots
	if cost := r.retainedBytes; cost > 0 && budget/cost < int64(n) {
		n = int(budget / cost)
	}
	span := len(gates) - base
	if n < 2 || span == 0 {
		return applied
	}
	stride := (span + n - 2) / (n - 1)
	for g := len(gates) - (span-1)/stride*stride; g <= len(gates); g += stride {
		walkTo(g)
		if !r.keep(g, budget) {
			break
		}
	}
	return applied
}

// keep snapshots the backend's current state — the reference state
// after gates unitaries — unless its cost would take the retained
// bytes past budget. A backend prices a state only once it is
// captured, so a refused capture is let go again: for a dense backend
// an amplitude copy the collector reclaims, for the DD backend one
// root pin that lasts until the backend's release — the caller stops
// at the first refusal.
func (r *ckptRunner) keep(gates int, budget int64) bool {
	state := r.forker.Snapshot()
	var nodes, bytes int64
	if r.sizer != nil {
		nodes, bytes = r.sizer.StateCost(state)
	}
	if bytes > budget-r.retainedBytes {
		return false
	}
	r.snaps = append(r.snaps, refSnap{gates: gates, state: state})
	// DD node counts are per-snapshot, so sub-diagrams shared between
	// snapshots are counted once per pin — an upper bound on what the
	// pins actually keep alive.
	r.retainedNodes += nodes
	r.retainedBytes += bytes
	telemetry.CheckpointNodesRetained.SetMax(r.retainedNodes)
	telemetry.CheckpointBytesRetained.SetMax(r.retainedBytes)
	telemetry.CheckpointsTaken.With("prefix").Inc()
	return true
}

// finalState returns the state after all of the reference path's
// unitaries — for a path that covers the circuit, its noise-free final
// state. It is the snapshot a forking runner kept there; when the
// snapshot budget left none at the end, the runner walks there and s
// captures it.
func (r *ckptRunner) finalState(s sim.Snapshotter, st *ckptStats) sim.Snapshot {
	end := len(r.path.gates)
	if n := len(r.snaps); n > 0 && r.snaps[n-1].gates == end {
		return r.snaps[n-1].state
	}
	r.advance(-1, end, st)
	return s.Snapshot()
}

// advance brings the backend from the reference path's state after
// `at` unitaries to the one after need, applying the bare unitaries in
// between. at < 0 means the trajectory has not touched the backend yet:
// it starts from the nearest snapshot at or before need, or from Reset
// without any. A forking runner's first snapshot is at the first roll,
// so it always has one, and a forked trajectory restores exactly once.
// It reports whether the backend now holds a snapshot as restored, with
// nothing applied on top.
func (r *ckptRunner) advance(at, need int, st *ckptStats) (restored bool) {
	if at < 0 {
		i := len(r.snaps) - 1
		for i >= 0 && r.snaps[i].gates > need {
			i--
		}
		if i < 0 {
			r.backend.Reset()
			at = 0
		} else {
			r.forker.Restore(r.snaps[i].state)
			at = r.snaps[i].gates
			st.skipped += at
			restored = at == need
		}
	}
	for _, op := range r.path.gates[at:need] {
		r.backend.ApplyOp(op)
	}
	st.applied += need - at
	return restored
}

// run executes one trajectory: rng is positioned at its stream's start
// and clbits is a 1-element scratch slice that holds the packed
// classical register afterwards. Along the reference path it visits
// only the rolls that fire (see stream.go for what it draws); a hit
// that turns out to change nothing (a depolarising I, a damping event
// on a qubit in |0⟩) is a fire like any other. It reports whether the
// backend holds the restored snapshot of the whole circuit's final
// reference state, untouched — the state of every trajectory without
// an event when the path covers the circuit.
func (r *ckptRunner) run(rng *rand.Rand, clbits []uint64, st *ckptStats, counts *noise.ChannelCounts) (reference bool) {
	p := r.path
	clbits[0] = 0
	at := -1
	for j := p.nextFire(rng, 0); j < len(p.rolls); j = p.nextFire(rng, j+1) {
		need := int(p.rolls[j].need)
		r.advance(at, need, st)
		at = need
		p.fire(j, r.backend, rng)
	}
	restored := r.advance(at, len(p.gates), st)
	for l, n := range p.channels {
		counts[l] += n
	}
	on := p.plan.At(p.endOp)
	r.resume(on, p.endOp, p.endCh, on != nil && p.endCh < len(on.Pre), rng, clbits, st, counts)
	return restored && p.endOp == len(r.circ.Ops)
}

// resume continues a trajectory roll by roll from channel k of op i:
// the op's remaining channels — with its unitary in between when
// the trajectory is still before it — then every later op. on is the
// op's channel list; nil (a site, a bare gate or the circuit's end)
// means the op has not begun.
func (r *ckptRunner) resume(on *noise.OpNoise, i, k int, beforeUnitary bool, rng *rand.Rand, clbits []uint64, st *ckptStats, counts *noise.ChannelCounts) {
	if on != nil {
		if beforeUnitary {
			on.ApplyPreFrom(k, r.backend, rng, counts)
			r.backend.ApplyOp(i)
			st.applied++
			k = len(on.Pre)
		}
		on.ApplyPostFrom(k-len(on.Pre), r.backend, rng, counts)
		i++
	}
	st.applied += runRange(r.backend, r.circ, r.path.plan, rng, clbits, i, len(r.circ.Ops), counts)
}
