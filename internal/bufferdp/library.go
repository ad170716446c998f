// Multi-type buffer insertion: the length-based DP of bufferdp.go
// generalized to a buffer library following Li & Shi, "An O(bn^2) Time
// Algorithm for Optimal Buffer Insertion with b Buffer Types". Each library
// gate carries its own length constraint (how many tile units of unbuffered
// interconnect it may drive), a site-cost multiplier, and an inverting flag.
// Cost arrays gain a polarity dimension: C_v[p][j] is the cheapest buffering
// of the subtree below v given that the signal arriving at v has parity p
// (0 = true, 1 = inverted) and the unbuffered wirelength hanging at v totals
// j. Sinks require parity 0, inverters flip parity, and joins only combine
// candidates that agree on the incoming parity — so inverters are forced
// into pairs on every driver-to-sink chain.
//
// Conventions (shared with the brute-force reference checker in the tests):
// a trunk gate at v drives the node's entire joined load, including the
// inputs of any decoupling gates placed at the same node (they sit behind
// it, Fig. 8); a sink pin at v taps the signal *arriving* at v, before any
// gate placed in v's tile.
package bufferdp

import (
	"fmt"
	"math"

	"repro/internal/rtree"
)

// LibGate is the DP's view of one buffer-library entry. It is deliberately
// decoupled from the electrical model (internal/tech): the DP only needs
// the planning attributes.
type LibGate struct {
	// L is the gate's length constraint: the maximum tile units of
	// unbuffered interconnect its output may drive. Must be >= 1.
	L int
	// CostScale multiplies the Eq. (2) site cost q(v) when this gate is
	// placed (relative footprint of the gate in a buffer site).
	CostScale float64
	// Invert marks an inverter: the gate's output has the opposite parity
	// of its input.
	Invert bool
}

// lkptr records how a per-child, per-parity candidate K_i[p][j] was formed.
type lkptr struct {
	fromJ    int16 // index into the child's C array
	fromPar  int8  // parity plane of the child's C array
	gate     int16 // >= 0: library gate decoupling this branch; -1: advance
	violated bool
	valid    bool
}

// ljptr records the split of a join cell; both sides share the parity.
type ljptr struct {
	left, right int16
	violated    bool
	valid       bool
}

// lextra records a trunk gate choice for C_v[p][0].
type lextra struct {
	fromJ   int16
	fromPar int8
	gate    int16
	valid   bool
}

// AssignLib computes the minimum-cost buffer assignment for the routed tree
// rt over a buffer library. L is the driver's length constraint (the root
// gate is fixed, not chosen from the library); q(v) is the Eq. (2) site
// cost of the tile at route-tree node v (+Inf for tiles without free
// sites), scaled per gate by LibGate.CostScale. When st is non-nil it is
// overwritten with the DP statistics of this call.
//
// With lib = [{L: L, CostScale: 1, Invert: false}] the DP reduces exactly
// to AssignCounted: same transitions, same costs, same violation
// accounting (pinned by TestAssignLibSingleTypeEquivalence). It runs on a
// fresh LibScratch; callers that assign many nets keep one LibScratch and
// call its AssignLib instead.
func AssignLib(rt *rtree.Tree, L int, lib []LibGate, q func(v int) float64, st *DPStats) (Assignment, error) {
	var s LibScratch
	return s.AssignLib(rt, L, lib, q, st)
}

// LibScratch is the reusable working memory of the library DP, laid out
// like Scratch. A row holds both parity planes of w cells each, plane p at
// cells [p*w, p*w+w), and every per-node array is a row in one flat arena
// sized once per call from the node count: the C row of node v at row v,
// and — because every child has exactly one parent — the K row, the K
// pointer row and the join pointer row of the edge into child c at row c.
// Two fold rows take the running join in turn. For an n-node tree w is at
// most max(L, n)+1 (see the row cap in AssignLib). A warmed LibScratch
// assigns a net without allocating anything but the returned Buffers and
// Gates slices. The zero value is ready to use; one LibScratch serves one
// goroutine at a time.
type LibScratch struct {
	c     []float64    // C_v rows
	k     []float64    // K rows of the edge (parent(c), c), at row c
	kp    []lkptr      // K pointers, at row c
	jp    []ljptr      // join pointers for folding child c in (c not a first child), at row c
	fold  [2][]float64 // the join accumulators, one row each, used in turn
	trunk [][2]lextra  // per node and parity: the trunk gate choice for C_v[p][0]
	order []int        // post-order
	sel   []int        // per node: the chosen index of its K row during recovery
	bufs  []Buffer     // recovery output, copied out exactly sized
	gates []int        // recovery output, parallel to bufs
	w     int          // cells per parity plane in the last call
}

// grow sizes the arenas for n nodes of two planes w cells wide.
func (s *LibScratch) grow(n, w int) {
	row := 2 * w
	if cells := n * row; cap(s.c) < cells {
		s.c = make([]float64, cells)
		s.k = make([]float64, cells)
		s.kp = make([]lkptr, cells)
		s.jp = make([]ljptr, cells)
	}
	if cap(s.trunk) < n {
		s.trunk = make([][2]lextra, n)
		s.sel = make([]int, n)
	}
	for f := range s.fold {
		if cap(s.fold[f]) < row {
			s.fold[f] = make([]float64, row)
		}
		s.fold[f] = s.fold[f][:row]
	}
	s.c, s.k = s.c[:n*row], s.k[:n*row]
	s.kp, s.jp = s.kp[:n*row], s.jp[:n*row]
	s.trunk, s.sel = s.trunk[:n], s.sel[:n]
	s.w = w
}

// AssignLib is the package-level AssignLib on the scratch's arenas. Each
// step is the arithmetic of the per-node-slice DP it replaced, in the same
// order, over rows capped as described below, so every Assignment equals
// that DP's, and results, counters and tie-breaks are identical to a
// fresh LibScratch's.
func (s *LibScratch) AssignLib(rt *rtree.Tree, L int, lib []LibGate, q func(v int) float64, st *DPStats) (Assignment, error) {
	if L < 1 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d < 1", L) //rabid:allow allocfree cold argument-error path
	}
	if L > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d too large", L) //rabid:allow allocfree cold argument-error path
	}
	if len(lib) == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty buffer library")
	}
	if len(lib) > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: library of %d gates too large", len(lib)) //rabid:allow allocfree cold argument-error path
	}
	// The top array index M is the longest length any gate (or the driver)
	// may drive, capped below; the violation bucket sits there. A driver
	// limit below M is settled at the root scan with ViolationPenalty per
	// excess tile.
	m := L
	for i, g := range lib {
		if g.L < 1 {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: length constraint %d < 1", i, g.L) //rabid:allow allocfree cold argument-error path
		}
		if g.L > math.MaxInt16 {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: length constraint %d too large", i, g.L) //rabid:allow allocfree cold argument-error path
		}
		if g.CostScale < 0 || math.IsInf(g.CostScale, 1) || math.IsNaN(g.CostScale) {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: cost scale %g not in [0, inf)", i, g.CostScale) //rabid:allow allocfree cold argument-error path
		}
		if g.L > m {
			m = g.L
		}
	}
	n := rt.NumNodes()
	if n == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty tree")
	}
	// Row cap: every C and K row is constant beyond its subtree's edge
	// count, at most n-1, so no first-minimum scan, recovery pointer or
	// result depends on an index past max(L, n), and the violation bucket
	// moved down to M' = max(L, min(M, n)) only receives candidates that
	// an equal-cost split without violation beats (DESIGN.md, "Planning
	// backends"). One gate with a huge L thus cannot widen every row; the
	// work counters fall where the cap applies.
	m = max(L, min(m, n))
	inf := math.Inf(1)
	candidates, pruned, joins := 0, 0, 0
	w := m + 1
	row := 2 * w
	s.grow(n, w)
	s.order = rt.PostOrderInto(s.order)

	for _, v := range s.order {
		kids := rt.Children(v)
		cv := s.c[v*row : v*row+row]
		s.trunk[v] = [2]lextra{}
		if len(kids) == 0 {
			// Leaf: no wire hangs below it and the pin terminates any
			// length count, so every index is free — but only on the parity
			// plane a sink accepts (true signal). A non-sink leaf (a
			// single-node net's root) is parity-indifferent.
			clear(cv)
			if rt.SinksAt(v) > 0 {
				for j := w; j < row; j++ {
					cv[j] = inf
				}
			}
			continue
		}
		qa := q(v)
		// Build K_i for each child — advance one tile, or place a library
		// gate here to decouple and drive the branch — and fold it into the
		// running join. K_0 is the first accumulator; each later fold
		// writes the fold row the accumulator is not in.
		var acc []float64
		for i, c := range kids {
			k := s.k[c*row : c*row+row]
			kp := s.kp[c*row : c*row+row]
			cw := s.c[c*row : c*row+row]
			clear(kp)
			for p := 0; p < 2; p++ {
				kj := k[p*w : p*w+w]
				kpj := kp[p*w : p*w+w]
				cwp := cw[p*w : p*w+w]
				for j := range kj {
					kj[j] = inf
				}
				// AdvanceTile: one more tile of wire on the way to v; the
				// wire does not touch parity.
				for j := 1; j <= m; j++ {
					if cwp[j-1] < kj[j] {
						kj[j] = cwp[j-1]
						//rabid:allow narrowcast j <= m and m <= MaxInt16 is validated on entry; p is a parity in {0,1}
						kpj[j] = lkptr{fromJ: int16(j - 1), fromPar: int8(p), gate: -1, valid: true}
						candidates++
					}
				}
				// Violation bucket: stay at the top index, paying the
				// penalty per parked tile.
				if cwp[m] < inf {
					if cc := cwp[m] + ViolationPenalty; cc < kj[m] {
						kj[m] = cc
						//rabid:allow narrowcast m <= MaxInt16 is validated on entry; p is a parity in {0,1}
						kpj[m] = lkptr{fromJ: int16(m), fromPar: int8(p), gate: -1, violated: true, valid: true}
						candidates++
					} else {
						pruned++
					}
				}
				// BufferTile over the library: gate g at v decouples this
				// branch (1 tile of edge + the child's unbuffered load <=
				// g.L). The gate's input has parity p, so the child plane
				// is p flipped by the gate's inversion.
				if !math.IsInf(qa, 1) {
					for gi, g := range lib {
						pc := p
						if g.Invert {
							pc = 1 - p
						}
						cwc := cw[pc*w : pc*w+w]
						bestJ, bestC := -1, inf
						for j := 0; j <= g.L-1 && j <= m; j++ {
							if cwc[j] < bestC {
								bestC, bestJ = cwc[j], j
							}
						}
						if bestJ < 0 {
							continue
						}
						if cc := qa*g.CostScale + bestC; cc < kj[0] {
							kj[0] = cc
							//rabid:allow narrowcast bestJ <= m and gi < len(lib), both validated <= MaxInt16 on entry; pc is a parity in {0,1}
							kpj[0] = lkptr{fromJ: int16(bestJ), fromPar: int8(pc), gate: int16(gi), valid: true}
							candidates++
						} else {
							pruned++
						}
					}
				}
			}
			if i == 0 {
				acc = k
				continue
			}
			// JoinChildren: min-plus convolution per parity plane. Both
			// sides of a join see the same incoming signal, so only equal
			// parities combine.
			nxt := s.fold[(i-1)%2]
			np := s.jp[c*row : c*row+row]
			clear(np)
			for p := 0; p < 2; p++ {
				ap, kj := acc[p*w:p*w+w], k[p*w:p*w+w]
				npp, nxp := np[p*w:p*w+w], nxt[p*w:p*w+w]
				for j := range nxp {
					nxp[j] = inf
				}
				for j1 := 0; j1 <= m; j1++ {
					if math.IsInf(ap[j1], 1) {
						continue
					}
					for j2 := 0; j2 <= m; j2++ {
						if math.IsInf(kj[j2], 1) {
							continue
						}
						sum := ap[j1] + kj[j2]
						tgt := j1 + j2
						viol := false
						if tgt > m {
							sum += float64(tgt-m) * ViolationPenalty
							tgt = m
							viol = true
						}
						joins++
						if sum < nxp[tgt] {
							nxp[tgt] = sum
							npp[tgt] = ljptr{left: int16(j1), right: int16(j2), violated: viol, valid: true}
							candidates++
						} else {
							pruned++
						}
					}
				}
			}
			acc = nxt
		}
		// C_v starts as the joined array.
		copy(cv, acc)
		// BufferMultiChildren, generalized: a trunk gate from the library
		// may drive the joined load (Fig. 8(a)/(b)). Its output feeds the
		// join (parity plane pd); its input — the signal arriving at v —
		// has parity pd flipped by the gate's inversion. Unlike the
		// single-type DP this applies at degree-one nodes too: stacking a
		// trunk inverter in front of a branch inverter forms a series pair
		// in one tile, the cheapest way to restore polarity in place. (For
		// a non-inverting library the degree-one trunk candidate ties the
		// branch-gate candidate and is pruned, so the single-type reduction
		// is unaffected.) The scans read the joined array, which the
		// updates to C_v[p][0] leave untouched.
		if !math.IsInf(qa, 1) {
			// Trunk scan bound: up to the gate's constraint, capped at the
			// top index. At degree-one nodes the bucket index m is excluded
			// (only branch-node trunk gates rescue violation buckets, the
			// single-type DP's convention); every non-bucket degree-one
			// candidate ties a branch-gate candidate, so this changes
			// nothing on feasible nets.
			for gi, g := range lib {
				hi := g.L
				if hi > m {
					hi = m
				}
				if len(kids) == 1 && hi == m {
					hi = m - 1
				}
				for pd := 0; pd < 2; pd++ {
					ap := acc[pd*w : pd*w+w]
					bestJ, bestC := -1, inf
					for j := 0; j <= hi; j++ {
						if ap[j] < bestC {
							bestC, bestJ = ap[j], j
						}
					}
					if bestJ < 0 {
						continue
					}
					pin := pd
					if g.Invert {
						pin = 1 - pd
					}
					if cc := qa*g.CostScale + bestC; cc < cv[pin*w] {
						cv[pin*w] = cc
						//rabid:allow narrowcast bestJ <= m and gi < len(lib), both validated <= MaxInt16 on entry; pd is a parity in {0,1}
						s.trunk[v][pin] = lextra{fromJ: int16(bestJ), fromPar: int8(pd), gate: int16(gi), valid: true}
						candidates++
					} else {
						pruned++
					}
				}
			}
		}
		// A sink pin in v's tile taps the arriving signal, so only
		// parity-0 candidates are legal at v.
		if rt.SinksAt(v) > 0 {
			for j := w; j < row; j++ {
				cv[j] = inf
			}
			s.trunk[v][1] = lextra{}
		}
	}
	if st != nil {
		*st = DPStats{Candidates: candidates, Pruned: pruned, Joins: joins}
	}

	// The driver outputs the true signal and may drive up to L tiles;
	// indices beyond L (reachable when some library gate out-drives the
	// driver) pay the violation penalty per excess tile.
	bestJ, bestC, bestViol := -1, inf, 0
	for j, c := range s.c[:w] {
		over := 0
		if j > L {
			over = j - L
			c += float64(over) * ViolationPenalty
		}
		if c < bestC {
			bestC, bestJ, bestViol = c, j, over
		}
	}
	if bestJ < 0 {
		return Assignment{}, fmt.Errorf("bufferdp: no solution (unexpected: violation buckets should always apply)")
	}
	a := Assignment{Cost: bestC, Violations: bestViol}
	s.bufs, s.gates = s.bufs[:0], s.gates[:0]
	s.recover(rt, 0, 0, bestJ, &a)
	if len(s.bufs) == 0 {
		a.Gates = []int{} //rabid:allow allocfree zero-length literal: points at the runtime's zero base, no heap object
		return a, nil
	}
	a.Buffers = make([]Buffer, len(s.bufs)) //rabid:allow allocfree the returned assignment owns its buffer list
	copy(a.Buffers, s.bufs)
	a.Gates = make([]int, len(s.gates)) //rabid:allow allocfree the returned assignment owns its gate list
	copy(a.Gates, s.gates)
	return a, nil
}

// recover replays the DP decisions top-down, collecting buffers and gates
// into s.bufs and s.gates and violation counts into a. v is the node, par
// the parity plane and j the index of C_v being realized.
func (s *LibScratch) recover(rt *rtree.Tree, v, par, j int, a *Assignment) {
	kids := rt.Children(v)
	if len(kids) == 0 {
		return
	}
	w := s.w
	row := 2 * w
	if e := s.trunk[v][par]; j == 0 && e.valid {
		// Trunk gate at v (only recorded when it beat the plain join).
		s.bufs = append(s.bufs, Buffer{Node: v, Branch: -1})
		s.gates = append(s.gates, int(e.gate))
		par, j = int(e.fromPar), int(e.fromJ)
	}
	// Unfold the joins from the last child back to the first.
	for i := len(kids) - 1; i >= 1; i-- {
		c := kids[i]
		p := s.jp[c*row+par*w+j]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid join pointer at node %d parity %d index %d", v, par, j)) //rabid:allow allocfree panic path: a corrupted DP table
		}
		if p.violated {
			a.Violations += int(p.left) + int(p.right) - j
		}
		s.sel[c] = int(p.right)
		j = int(p.left)
	}
	s.sel[kids[0]] = j
	for i, c := range kids {
		p := s.kp[c*row+par*w+s.sel[c]]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid K pointer at node %d child %d parity %d index %d", v, i, par, s.sel[c])) //rabid:allow allocfree panic path: a corrupted DP table
		}
		if p.gate >= 0 {
			role := c
			if len(kids) == 1 {
				// A gate on a degree-one node drives the whole (single)
				// downstream branch; report it as a trunk buffer.
				role = -1
			}
			s.bufs = append(s.bufs, Buffer{Node: v, Branch: role})
			s.gates = append(s.gates, int(p.gate))
		}
		if p.violated {
			a.Violations++
		}
		s.recover(rt, c, int(p.fromPar), int(p.fromJ), a)
	}
}
