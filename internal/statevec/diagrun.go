package statevec

import (
	"math/bits"
	"sort"

	"ddsim/internal/circuit"
)

// minDiagRun is the shortest run of consecutive diagonal ops compiled
// to a table. A pass reads and multiplies each amplitude it walks once,
// at about 1.1 times the cost of a kernel's multiply: on 14 qubits, two
// controlled phases on one target (each a quarter of the register, the
// pass half of it) took 7.0 µs as a pass and 6.4 µs one by one, three
// took 7.2 µs and 9.7 µs (PERFORMANCE.md, "Diagonal runs on statevec").
const minDiagRun = 3

// diagRun is a maximal run of consecutive diagonal ops [start, end),
// compiled to one table of its product diagonal. The table is indexed
// by the run's span of fixed bits — every target and control, lowest
// bit lo — less the bits that every op of the run fixes to one value
// (fixMask, fixWant). Amplitudes outside fixWant are left alone by
// every op, so the pass walks only the subspace sub of those that
// match; the 2^lo consecutive amplitudes below the span share an
// entry.
type diagRun struct {
	start, end int
	lo         uint
	span       uint64 // bits lo..hi
	fixMask    uint64
	fixWant    uint64
	sub        subspace
	table      []complex128
}

// diagScale is one half of a diagonal op: the amplitudes whose bits
// under mask equal want are multiplied by f.
type diagScale struct {
	mask, want uint64
	f          complex128
}

// diagHalves splits a compiled diagonal op into the halves it
// multiplies, skipping a factor of exactly 1 as applyCompiled does.
func diagHalves(g *compiledGate) (hs [2]diagScale, n int) {
	stride := g.sub.stride
	if g.u[0][0] != 1 {
		hs[n] = diagScale{g.ctrl | stride, g.sub.base, g.u[0][0]}
		n++
	}
	if g.u[1][1] != 1 {
		hs[n] = diagScale{g.ctrl | stride, g.sub.base | stride, g.u[1][1]}
		n++
	}
	return hs, n
}

// fixes is what a diagonal op fixes: its controls, and its target when
// one factor is exactly 1 and so leaves that half alone — the 1 half
// when u00 is 1, the 0 half when only u11 is.
func fixes(g *compiledGate) (mask, want uint64) {
	mask, want = g.ctrl, g.sub.base
	switch {
	case g.u[0][0] == 1:
		mask |= g.sub.stride
		want |= g.sub.stride
	case g.u[1][1] == 1:
		mask |= g.sub.stride
	}
	return mask, want
}

// tableShare bounds a backend's tables: together they hold at most
// 2^n / tableShare entries, kept smallest first. A trajectory forks
// from the noise-free path at its first noise event and applies only
// the gates after it, so it rarely holds a run near the circuit's
// start whole, and in a QFT those runs have the largest tables. On
// qft14_statevec budgets of half, a quarter and an eighth of the state
// read 13.2, 13.6 and 14.2 ms a 1-worker job and a peak RSS of 18.9,
// 18.6 and 18.4 MiB, against 18.8 ms and 18.2 MiB per gate; an eighth
// is the budget that kept the RSS within the per-gate runs' spread
// (PERFORMANCE.md, "Diagonal runs on statevec").
const tableShare = 8

// planDiagRuns finds the maximal runs of at least minDiagRun
// consecutive diagonal gates among gates (ops of c not a gate are
// zero-valued and end a run) whose pass walks fewer amplitudes than
// their ops touch one by one, and plans a table for each, smallest
// first, while the tables' entries together fit within 2^n /
// tableShare. No table is allocated.
func planDiagRuns(c *circuit.Circuit, gates []compiledGate) []*diagRun {
	dim := uint64(1) << uint(c.NumQubits)
	var runs []*diagRun
	diag := func(i int) bool { return c.Ops[i].Kind == circuit.KindGate && gates[i].kernel == kernDiag }
	for s := 0; s < len(gates); {
		if !diag(s) {
			s++
			continue
		}
		e := s + 1
		for e < len(gates) && diag(e) {
			e++
		}
		if e-s >= minDiagRun {
			r := &diagRun{start: s, end: e, fixMask: dim - 1}
			var bitsUsed, touched uint64
			for i := s; i < e; i++ {
				m, w := fixes(&gates[i])
				if i == s {
					r.fixWant = w
				}
				r.fixMask &= m &^ (w ^ r.fixWant)
				bitsUsed |= gates[i].ctrl | gates[i].sub.stride
				hs, k := diagHalves(&gates[i])
				for _, h := range hs[:k] {
					touched += dim >> uint(bits.OnesCount64(h.mask))
				}
			}
			r.fixWant &= r.fixMask
			if walked := dim >> uint(bits.OnesCount64(r.fixMask)); walked < touched {
				r.lo = uint(bits.TrailingZeros64(bitsUsed))
				r.span = (uint64(1)<<uint(bits.Len64(bitsUsed)) - 1) &^ (uint64(1)<<r.lo - 1)
				run := r.fixMask & -r.fixMask
				if run == 0 {
					run = uint64(1) << uint(bits.Len64(r.span))
				}
				r.sub = subspace{base: r.fixWant, run: run, free: (dim - 1) &^ r.fixMask &^ (run - 1)}
				runs = append(runs, r)
			}
		}
		s = e
	}
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].entries() < runs[b].entries() })
	budget := dim / tableShare
	kept := runs[:0]
	for _, r := range runs {
		if n := r.entries(); n <= budget {
			budget -= n
			kept = append(kept, r)
		}
	}
	return kept
}

// entries is the size of the run's table: 2 to the number of its
// index bits.
func (r *diagRun) entries() uint64 {
	return 1 << uint(bits.OnesCount64(r.span&^r.fixMask))
}

// tableBits maps a mask of register bits inside the span and outside
// fixMask to the table's bits.
func (r *diagRun) tableBits(m uint64) uint64 {
	var out uint64
	idx := r.span &^ r.fixMask
	for k := uint(0); idx != 0; k++ {
		low := idx & -idx
		if m&low != 0 {
			out |= 1 << k
		}
		idx &^= low
	}
	return out
}

// build fills the table with the run's product diagonal: each op's
// halves, in op order, applied to a table of ones by the scale kernel
// over the entries its condition selects (a condition on a bit of
// fixMask holds on every amplitude the pass walks, so it is dropped).
func (r *diagRun) build(gates []compiledGate) {
	r.table = make([]complex128, r.entries())
	for j := range r.table {
		r.table[j] = 1
	}
	for i := r.start; i < r.end; i++ {
		hs, k := diagHalves(&gates[i])
		for _, h := range hs[:k] {
			scaleWhere(r.table, r.tableBits(h.mask&^r.fixMask), r.tableBits(h.want&^r.fixMask), h.f)
		}
	}
}

// scaleWhere multiplies by f the entries of t whose bits under mask
// equal want, through the scale kernel with the top bit of mask in the
// target's place.
func scaleWhere(t []complex128, mask, want uint64, f complex128) {
	if mask == 0 {
		for j := range t {
			t[j] *= f
		}
		return
	}
	top := uint(bits.Len64(mask) - 1)
	stride := uint64(1) << top
	scale(t, newSubspace(len(t), top, mask&^stride, want&^stride), want&stride, f)
}

// apply is the run's one pass: every amplitude the pass walks times
// its table entry, v[i] *= T[idx(i)]. The subspace's runs are
// consecutive in the walk's compressed positions (fixMask's bits taken
// out), whose bits lo and up, masked to the table, are the entry.
func (r *diagRun) apply(v []complex128) {
	t := r.table
	tmask := uint64(len(t) - 1)
	group := uint64(1) << r.lo
	for s, pos := uint64(0), uint64(0); ; pos += r.sub.run {
		i := r.sub.base | s
		seg := v[i : i+r.sub.run]
		k := (pos >> r.lo) & tmask
		if group == 1 {
			for j, f := range t[k : k+uint64(len(seg))] {
				seg[j] *= f
			}
		} else {
			for j := uint64(0); j < uint64(len(seg)); j += group {
				f := t[k+j>>r.lo]
				g := seg[j : j+group]
				for m := range g {
					g[m] *= f
				}
			}
		}
		if s = (s - r.sub.free) & r.sub.free; s == 0 {
			return
		}
	}
}
