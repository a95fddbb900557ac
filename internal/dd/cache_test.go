package dd

import (
	"math"
	"math/cmplx"
	"testing"
	"unsafe"
)

// TestCacheGeometry pins the compute-cache layout: pointer-free
// entries of the documented sizes, the two mat-vec geometries by
// register size, and one pool per geometry — a package never draws a
// set of the other geometry, whatever was released before it.
func TestCacheGeometry(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"pairEntry", unsafe.Sizeof(pairEntry{}), 16},
		{"tripleEntry", unsafe.Sizeof(tripleEntry{}), 20},
		{"dotEntry", unsafe.Sizeof(dotEntry{}), 24},
		{"ctEntry", unsafe.Sizeof(ctEntry{}), 12},
		{"norm2Entry", unsafe.Sizeof(norm2Entry{}), 16},
		{"probEntry", unsafe.Sizeof(probEntry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	for n := 1; n <= MaxQubits; n++ {
		want := 16
		if n >= 24 {
			want = 18
		}
		if got := mvCacheBits(n); got != want {
			t.Errorf("mvCacheBits(%d) = %d, want %d", n, got, want)
		}
	}
	for _, n := range []int{24, 8, 16, 64, 15, 23, 8} {
		p := NewPackage(n)
		if got, want := len(p.caches.mv), 1<<mvCacheBits(n); got != want {
			t.Errorf("n=%d: mat-vec cache has %d entries, want %d", n, got, want)
		}
		if len(p.caches.add) != 1<<16 || len(p.caches.mm) != 1<<12 {
			t.Errorf("n=%d: add/mm caches have %d/%d entries, want %d/%d",
				n, len(p.caches.add), len(p.caches.mm), 1<<16, 1<<12)
		}
		p.MulMV(p.SingleQubitGate(matH, 0), p.ZeroState())
		p.Release()
	}
}

// progReader decodes a fuzzed op program; reads past the end yield 0.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) more() bool { return r.i < len(r.b) }

func (r *progReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// fuzzGate decodes one single-qubit matrix: a Clifford+T gate or a
// rotation by a multiple of π/16.
func fuzzGate(b byte) Mat2 {
	th := float64(b>>3) * math.Pi / 16
	c, s := complex(math.Cos(th/2), 0), complex(math.Sin(th/2), 0)
	switch b % 8 {
	case 0:
		return matH
	case 1:
		return matX
	case 2:
		return matY
	case 3:
		return Mat2{{1, 0}, {0, 1i}}
	case 4:
		return Mat2{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
	case 5:
		return Mat2{{c, -s}, {s, c}} // RY
	case 6:
		return Mat2{{c, complex(0, -1) * s}, {complex(0, -1) * s, c}} // RX
	default:
		return Mat2{{cmplx.Exp(complex(0, -th/2)), 0}, {0, cmplx.Exp(complex(0, th/2))}} // RZ
	}
}

// sameAfterClear evaluates op with the caches as the sequence left
// them, clears every compute cache, evaluates op again and fails unless
// both results are identical — the same node and weight pointers, or
// the bit-identical scalar.
func sameAfterClear[T comparable](t *testing.T, p *Package, what string, op func() T) T {
	t.Helper()
	warm := op()
	p.clearCaches()
	if cold := op(); cold != warm {
		t.Fatalf("%s: warm-cache result %v, recomputed after clearCaches %v", what, warm, cold)
	}
	return warm
}

// FuzzComputeCache runs a fuzzed op sequence on an n-qubit package
// (n = 2…8) — gates, Pauli strings, damping Kraus operators, Add of
// states, Dot, ProbOne, MulMM, ConjugateTranspose and Kron — and checks
// every op against its own recomputation right after clearCaches. The
// GC thresholds are tiny and reset every step, so collections recycle
// node and weight IDs mid-sequence: a cache entry that outlived a
// collection, or an ID resolved to the wrong arena slot, makes a
// warm-cache result differ from the cold one.
func FuzzComputeCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, nq uint8, prog []byte) {
		n := 2 + int(nq)%7
		p := NewPackage(n)
		// 256-entry caches: clearing them after every op is cheap, and
		// slots are overwritten constantly, so hits and conflict
		// evictions both occur at these register sizes.
		pooled := p.caches
		p.caches = cacheSet{
			mv: make([]pairEntry, 256), add: make([]tripleEntry, 256),
			madd: make([]tripleEntry, 256), mm: make([]pairEntry, 256),
			kron: make([]tripleEntry, 256), dot: make([]dotEntry, 256),
			ct: make([]ctEntry, 256), norm2: make([]norm2Entry, 256),
			prob: make([]probEntry, 256),
		}
		defer func() {
			p.caches = pooled
			p.Release()
		}()
		r := &progReader{b: prog}
		states := []VEdge{p.ZeroState()}
		p.Ref(states[0])
		var ops []MEdge
		pick := func() VEdge { return states[int(r.next())%len(states)] }
		// keep pins e in the state pool: appended while the pool is
		// small, otherwise replacing the slot the next byte names.
		keep := func(e VEdge) {
			if p.Norm2(e) > 1e-12 {
				e = p.Normalize(e)
			}
			p.Ref(e)
			if len(states) < 4 {
				states = append(states, e)
				return
			}
			i := int(r.next()) % len(states)
			p.Unref(states[i])
			states[i] = e
		}
		gate := func() MEdge {
			u, q, c := fuzzGate(r.next()), int(r.next())%n, r.next()
			var ctrls []Control
			if c%3 != 0 {
				ctrls = []Control{{Qubit: (q + 1 + int(c)%(n-1)) % n, Negative: c&0x80 != 0}}
			}
			return sameAfterClear(t, p, "ControlledGate", func() MEdge { return p.ControlledGate(u, q, ctrls) })
		}
		for step := 0; step < 64 && r.more(); step++ {
			switch r.next() % 9 {
			case 0: // gate
				g, s := gate(), pick()
				keep(sameAfterClear(t, p, "MulMV gate", func() VEdge { return p.MulMV(g, s) }))
			case 1: // Pauli string
				mask, kinds := r.next(), r.next()
				paulis := [4]Mat2{matI, matX, matY, matZ}
				factors := p.factorSlice()
				for q := 0; q < n; q++ {
					if mask>>uint(q)&1 != 0 {
						k := paulis[(int(kinds)+q)%4]
						factors[q] = &k
					}
				}
				g, s := p.ProductOperator(factors), pick()
				keep(sameAfterClear(t, p, "MulMV Pauli", func() VEdge { return p.MulMV(g, s) }))
			case 2: // amplitude-damping Kraus branch
				gamma, q, jump, s := float64(r.next())/255, int(r.next())%n, r.next()&1 == 1, pick()
				k := Mat2{{1, 0}, {0, complex(math.Sqrt(1-gamma), 0)}}
				if jump {
					k = Mat2{{0, complex(math.Sqrt(gamma), 0)}, {0, 0}}
				}
				type branch struct {
					e VEdge
					w float64
				}
				b := sameAfterClear(t, p, "ApplyKraus", func() branch {
					e, w := p.ApplyKraus(s, k, q)
					return branch{e, w}
				})
				keep(b.e)
			case 3: // Add of states
				a, b := pick(), pick()
				keep(sameAfterClear(t, p, "Add", func() VEdge { return p.Add(a, b) }))
			case 4:
				a, b := pick(), pick()
				sameAfterClear(t, p, "Dot", func() complex128 { return p.Dot(a, b) })
			case 5:
				s, q := pick(), int(r.next())%n
				sameAfterClear(t, p, "ProbOne", func() float64 { return p.ProbOne(s, q) })
			case 6: // MulMM into the operator pool
				a := gate()
				b := a
				if len(ops) > 0 {
					b = ops[int(r.next())%len(ops)]
				}
				m := sameAfterClear(t, p, "MulMM", func() MEdge { return p.MulMM(a, b) })
				p.RefM(m)
				if len(ops) < 3 {
					ops = append(ops, m)
				} else {
					i := int(r.next()) % len(ops)
					p.UnrefM(ops[i])
					ops[i] = m
				}
				s := pick()
				keep(sameAfterClear(t, p, "MulMV product", func() VEdge { return p.MulMV(m, s) }))
			case 7: // adjoint and Kronecker products of bare 2×2 blocks
				g := gate()
				sameAfterClear(t, p, "ConjugateTranspose", func() MEdge { return p.ConjugateTranspose(g) })
				u, v := p.Embed2x2(fuzzGate(r.next())), p.Embed2x2(fuzzGate(r.next()))
				sameAfterClear(t, p, "Kron", func() MEdge { return p.Kron(u, v) })
				w := MEdge{W: p.W.LookupC(complex(float64(r.next())/64, 0))}
				sameAfterClear(t, p, "Kron terminal", func() MEdge { return p.Kron(u, w) })
			case 8:
				p.GarbageCollect()
			}
			p.SetGCThresholds(48, 64)
			p.MaybeGC()
		}
	})
}
