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
// state and goes straight to sampling. Replayed (Checkpointing off, or
// a backend that cannot fork): Reset and apply the path's unitaries
// from the start. Between events both apply the path's bare unitaries.
//
// The path ends where a draw would need the state: at the first
// measurement or reset, or at the first exact-channel damping (whose
// branch probability is γ·P(qubit = 1)). Behind it the trajectory
// rolls, measures and resets op by op (runRange). Behind a noise-free
// path's end the forking runner additionally caches multi-level
// checkpoints keyed by the outcome history, so trajectories that took
// the same measurement branch skip the deterministic runs between
// random sites too.
//
// Bit-exactness: forked and replayed trajectories are one function
// (ckptRunner.run) making the same draws, and a restored state is the
// product of the identical operation sequence. Same-seed results are
// therefore bit-identical with checkpointing on or off; the
// differential tests in checkpoint_test.go enforce this.

import (
	"math"
	"math/rand"
	"sort"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/telemetry"
)

// Checkpointing modes accepted by Options.Checkpointing.
const (
	// CheckpointAuto (the default) forks trajectories from the
	// reference path whenever the backend implements sim.Forker and the
	// path holds gate applications to save.
	CheckpointAuto = "auto"
	// CheckpointOn requires checkpointing: jobs on backends that do
	// not implement sim.Forker fail instead of silently replaying.
	CheckpointOn = "on"
	// CheckpointOff replays every gate of every trajectory (the
	// differential baseline).
	CheckpointOff = "off"
)

// Per-worker bounds on retained states. A worker keeps at most
// maxRefSnapshots evenly spaced snapshots of the reference path —
// fewer when their summed sim.StateSizer cost would pass
// maxSegRetainedBytes — and replays the unitaries in between, so dense
// backends pay a handful of amplitude copies, not one per gate.
// Outcome histories of the segment cache are packed into a uint64, so
// circuits with more random sites keep only the reference path; the
// entry cap and the shared byte cap bound the retained states (pinned
// DD nodes, amplitude copies) no matter how many branches a job
// explores.
const (
	maxRefSnapshots     = 8
	maxSegHistBits      = 64
	maxSegEntries       = 64
	maxSegRetainedBytes = 256 << 20
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
// flat list of rolls along them, where the path ends, and where the
// remaining random sites sit. Read-only once built, so a job's workers
// share it.
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
	// sites lists the op indices of the random sites (measurements and
	// resets) from endOp on. Populated only for noise-free jobs: with
	// per-gate noise every gate is a random site and no deterministic
	// segments exist between them.
	sites []int
	// tailGates counts gate ops after the first random site — the
	// material multi-level segment caching can save.
	tailGates int
}

// worthwhile reports whether forking can save any gate applications
// (the CheckpointAuto enable condition).
func (p *refPath) worthwhile() bool {
	return len(p.gates) > 0 || (len(p.sites) > 0 && p.tailGates > 0)
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
		if op.Cond != nil && !condHolds(op.Cond, 0) {
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
			if plan == nil {
				for j := i; j < len(c.Ops); j++ {
					switch c.Ops[j].Kind {
					case circuit.KindMeasure, circuit.KindReset:
						p.sites = append(p.sites, j)
					case circuit.KindGate:
						p.tailGates++
					}
				}
			}
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

// segKey identifies a multi-level checkpoint: the state after the
// deterministic segment that follows the site-th random site, given
// the packed outcome history of all sites resolved so far. Two
// trajectories with equal histories are in bit-identical states there
// (collapses depend only on outcomes, conditions only on classical
// bits, and deterministic runs consume no randomness).
type segKey struct {
	site int
	hist uint64
}

// segState is one cached multi-level checkpoint and the number of gate
// applications a restore saves.
type segState struct {
	state sim.State
	gates int
}

// ckptStats accumulates the checkpointing effect of one work chunk;
// the engine flushes it into the process telemetry per chunk.
type ckptStats struct {
	applied int // gate applications executed
	skipped int // gate applications avoided via restores
	forks   int // restores served (trajectory starts + segment reuses)
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

	snaps []refSnap           // reference-path snapshots, ascending
	segs  map[segKey]segState // multi-level cache; nil when disabled

	retainedNodes int64
	retainedBytes int64
}

// newCkptRunner prepares a worker's trajectory runner. With a forker it
// walks the reference path on the worker's backend, keeps its
// snapshots, and prepares the multi-level cache when the path ends at a
// random site with more behind it. It returns the runner and the number
// of gate applications the construction executed (the engine feeds that
// into the gate telemetry).
func newCkptRunner(backend sim.Backend, forker sim.Forker, c *circuit.Circuit, path *refPath) (*ckptRunner, int) {
	r := &ckptRunner{backend: backend, forker: forker, circ: c, path: path}
	if forker == nil {
		return r, 0
	}
	r.sizer, _ = backend.(sim.StateSizer)
	applied := r.takeSnapshots(maxSegRetainedBytes)
	if len(path.sites) > 0 && len(path.sites) <= maxSegHistBits {
		r.segs = make(map[segKey]segState)
	}
	return r, applied
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
	r.noteRetained(nodes, bytes)
	telemetry.CheckpointsTaken.With("prefix").Inc()
	return true
}

// noteRetained accounts a newly pinned checkpoint against the
// retention telemetry. DD node counts are per-snapshot, so sub-
// diagrams shared between checkpoints are counted once per pin — an
// upper bound on what the pins actually keep alive.
func (r *ckptRunner) noteRetained(nodes, bytes int64) {
	r.retainedNodes += nodes
	r.retainedBytes += bytes
	telemetry.CheckpointNodesRetained.SetMax(r.retainedNodes)
	telemetry.CheckpointBytesRetained.SetMax(r.retainedBytes)
}

// advance brings the backend from the reference path's state after
// `at` unitaries to the one after need, applying the bare unitaries in
// between. at < 0 means the trajectory has not touched the backend yet:
// it starts from the nearest snapshot at or before need — a forking
// runner's first one is at the first roll, so it always has one — and
// from Reset without any. It reports whether the backend now holds a
// snapshot as restored, with nothing applied on top.
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
			st.forks++
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
	if r.segs != nil {
		r.runSegmented(rng, clbits, st)
		return false
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

// runSegmented walks the tail of a noise-free trajectory site by site:
// resolve the random site (measurement or reset), then serve the
// deterministic segment up to the next site from the outcome-history
// cache when possible. The tail contains no noise by construction
// (the plan only records sites for disabled noise models), so
// segments are pure gate runs.
func (r *ckptRunner) runSegmented(rng *rand.Rand, clbits []uint64, st *ckptStats) {
	ops := r.circ.Ops
	hist := uint64(0)
	i := r.path.endOp
	for site := 0; site < len(r.path.sites); site++ {
		op := &ops[i] // i == r.path.sites[site]
		if op.Cond == nil || condHolds(op.Cond, clbits[0]) {
			if execSiteOp(r.backend, op, rng, clbits) == 1 {
				hist |= 1 << uint(site)
			}
		}
		i++
		end := len(ops)
		if site+1 < len(r.path.sites) {
			end = r.path.sites[site+1]
		}
		i = r.runSegment(i, end, site+1, hist, clbits, st)
	}
}

// runSegment advances through the deterministic ops [i, end): restored
// from the segment cache when this (site, outcome-history) branch was
// executed before, computed — and cached, within the retention caps —
// otherwise. Returns end.
func (r *ckptRunner) runSegment(i, end, site int, hist uint64, clbits []uint64, st *ckptStats) int {
	if end <= i {
		return end
	}
	key := segKey{site: site, hist: hist}
	if cs, ok := r.segs[key]; ok {
		r.forker.Restore(cs.state)
		st.skipped += cs.gates
		st.forks++
		return end
	}
	gates := 0
	for ; i < end; i++ {
		op := &r.circ.Ops[i]
		if op.Kind != circuit.KindGate {
			continue
		}
		if op.Cond != nil && !condHolds(op.Cond, clbits[0]) {
			continue
		}
		r.backend.ApplyOp(i)
		gates++
	}
	st.applied += gates
	if gates > 0 && len(r.segs) < maxSegEntries && r.retainedBytes < maxSegRetainedBytes {
		state := r.forker.Snapshot()
		r.segs[key] = segState{state: state, gates: gates}
		if r.sizer != nil {
			r.noteRetained(r.sizer.StateCost(state))
		}
		telemetry.CheckpointsTaken.With("segment").Inc()
	}
	return end
}
