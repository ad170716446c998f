package bufferdp

import (
	"fmt"
	"math"

	"repro/internal/rtree"
)

// libOracleNode holds the oracle's DP state for one tree node.
type libOracleNode struct {
	c     [2][]float64
	kp    [][2][]lkptr
	jp    [][2][]ljptr
	extra [2]lextra
}

// assignLibOracle is the library DP as it was before LibScratch: fresh
// per-node slices for every C, K, pointer and fold array, and a recursive
// recovery with a fresh index slice per node. LibScratch.AssignLib must
// reproduce it exactly: cost bits, buffers and gates in order, violations
// and (without the row cap) work counters.
func assignLibOracle(rt *rtree.Tree, L int, lib []LibGate, q func(v int) float64, st *DPStats) (Assignment, error) {
	if L < 1 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d < 1", L)
	}
	if L > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d too large", L)
	}
	if len(lib) == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty buffer library")
	}
	if len(lib) > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: library of %d gates too large", len(lib))
	}
	// The top array index M is the longest length any gate (or the driver)
	// may drive; the violation bucket sits there. A driver limit below M is
	// settled at the root scan with ViolationPenalty per excess tile.
	m := L
	for i, g := range lib {
		if g.L < 1 {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: length constraint %d < 1", i, g.L)
		}
		if g.L > math.MaxInt16 {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: length constraint %d too large", i, g.L)
		}
		if g.CostScale < 0 || math.IsInf(g.CostScale, 1) || math.IsNaN(g.CostScale) {
			return Assignment{}, fmt.Errorf("bufferdp: library gate %d: cost scale %g not in [0, inf)", i, g.CostScale)
		}
		if g.L > m {
			m = g.L
		}
	}
	n := rt.NumNodes()
	if n == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty tree")
	}
	nodes := make([]libOracleNode, n)
	inf := math.Inf(1)
	candidates, pruned, joins := 0, 0, 0

	for _, v := range rt.PostOrder() {
		kids := rt.Children(v)
		nd := &nodes[v]
		if len(kids) == 0 {
			// Leaf: no wire hangs below it and the pin terminates any
			// length count, so every index is free — but only on the parity
			// plane a sink accepts (true signal). A non-sink leaf (a
			// single-node net's root) is parity-indifferent.
			nd.c[0] = make([]float64, m+1)
			nd.c[1] = make([]float64, m+1)
			if rt.SinksAt(v) > 0 {
				for j := range nd.c[1] {
					nd.c[1][j] = inf
				}
			}
			continue
		}
		// Build K_i for each child: advance one tile, or place a library
		// gate here to decouple and drive the branch.
		k := make([][2][]float64, len(kids))
		nd.kp = make([][2][]lkptr, len(kids))
		qa := q(v)
		for i, w := range kids {
			cw := &nodes[w].c
			for p := 0; p < 2; p++ {
				kj := make([]float64, m+1)
				kp := make([]lkptr, m+1)
				for j := range kj {
					kj[j] = inf
				}
				// AdvanceTile: one more tile of wire on the way to v; the
				// wire does not touch parity.
				for j := 1; j <= m; j++ {
					if cw[p][j-1] < kj[j] {
						kj[j] = cw[p][j-1]
						//rabid:allow narrowcast j <= m and m <= MaxInt16 is validated at AssignLib entry; p is a parity in {0,1}
						kp[j] = lkptr{fromJ: int16(j - 1), fromPar: int8(p), gate: -1, valid: true}
						candidates++
					}
				}
				// Violation bucket: stay at the top index, paying the
				// penalty per parked tile.
				if cw[p][m] < inf {
					if c := cw[p][m] + ViolationPenalty; c < kj[m] {
						kj[m] = c
						kp[m] = lkptr{fromJ: int16(m), fromPar: int8(p), gate: -1, violated: true, valid: true}
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
						bestJ, bestC := -1, inf
						for j := 0; j <= g.L-1 && j <= m; j++ {
							if cw[pc][j] < bestC {
								bestC, bestJ = cw[pc][j], j
							}
						}
						if bestJ < 0 {
							continue
						}
						if c := qa*g.CostScale + bestC; c < kj[0] {
							kj[0] = c
							//rabid:allow narrowcast bestJ <= m and gi < len(lib), both validated <= MaxInt16 at AssignLib entry; pc is a parity in {0,1}
							kp[0] = lkptr{fromJ: int16(bestJ), fromPar: int8(pc), gate: int16(gi), valid: true}
							candidates++
						} else {
							pruned++
						}
					}
				}
				k[i][p] = kj
				nd.kp[i][p] = kp
			}
		}
		// JoinChildren: min-plus convolution per parity plane, folding
		// children in order. Both sides of a join see the same incoming
		// signal, so only equal parities combine.
		acc := k[0]
		nd.jp = make([][2][]ljptr, len(kids))
		for i := 1; i < len(kids); i++ {
			var nxt [2][]float64
			var np [2][]ljptr
			for p := 0; p < 2; p++ {
				nxt[p] = make([]float64, m+1)
				np[p] = make([]ljptr, m+1)
				for j := range nxt[p] {
					nxt[p][j] = inf
				}
				for j1 := 0; j1 <= m; j1++ {
					if math.IsInf(acc[p][j1], 1) {
						continue
					}
					for j2 := 0; j2 <= m; j2++ {
						if math.IsInf(k[i][p][j2], 1) {
							continue
						}
						sum := acc[p][j1] + k[i][p][j2]
						tgt := j1 + j2
						viol := false
						if tgt > m {
							sum += float64(tgt-m) * ViolationPenalty
							tgt = m
							viol = true
						}
						joins++
						if sum < nxt[p][tgt] {
							nxt[p][tgt] = sum
							np[p][tgt] = ljptr{left: int16(j1), right: int16(j2), violated: viol, valid: true}
							candidates++
						} else {
							pruned++
						}
					}
				}
			}
			acc = nxt
			nd.jp[i] = np
		}
		// C_v starts as the joined array.
		nd.c[0] = append([]float64(nil), acc[0]...)
		nd.c[1] = append([]float64(nil), acc[1]...)
		// BufferMultiChildren, generalized: a trunk gate from the library
		// may drive the joined load (Fig. 8(a)/(b)). Its output feeds the
		// join (parity plane pd); its input — the signal arriving at v —
		// has parity pd flipped by the gate's inversion. Unlike the
		// single-type DP this applies at degree-one nodes too: stacking a
		// trunk inverter in front of a branch inverter forms a series pair
		// in one tile, the cheapest way to restore polarity in place. (For
		// a non-inverting library the degree-one trunk candidate ties the
		// branch-gate candidate and is pruned, so the single-type reduction
		// is unaffected.)
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
					bestJ, bestC := -1, inf
					for j := 0; j <= hi; j++ {
						if acc[pd][j] < bestC {
							bestC, bestJ = acc[pd][j], j
						}
					}
					if bestJ < 0 {
						continue
					}
					pin := pd
					if g.Invert {
						pin = 1 - pd
					}
					if c := qa*g.CostScale + bestC; c < nd.c[pin][0] {
						nd.c[pin][0] = c
						//rabid:allow narrowcast bestJ <= m and gi < len(lib), both validated <= MaxInt16 at AssignLib entry; pd is a parity in {0,1}
						nd.extra[pin] = lextra{fromJ: int16(bestJ), fromPar: int8(pd), gate: int16(gi), valid: true}
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
			for j := range nd.c[1] {
				nd.c[1][j] = inf
			}
			nd.extra[1] = lextra{}
		}
	}
	if st != nil {
		*st = DPStats{Candidates: candidates, Pruned: pruned, Joins: joins}
	}

	// The driver outputs the true signal and may drive up to L tiles;
	// indices beyond L (reachable when some library gate out-drives the
	// driver) pay the violation penalty per excess tile.
	root := &nodes[0]
	bestJ, bestC, bestViol := -1, inf, 0
	for j, c := range root.c[0] {
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
	a := Assignment{Cost: bestC, Violations: bestViol, Gates: []int{}}
	recoverLibOracle(rt, nodes, 0, 0, bestJ, &a)
	return a, nil
}

// recoverLibOracle replays the DP decisions top-down. v is the node, par the
// parity plane and j the index of C_v being realized.
func recoverLibOracle(rt *rtree.Tree, nodes []libOracleNode, v, par, j int, a *Assignment) {
	kids := rt.Children(v)
	if len(kids) == 0 {
		return
	}
	nd := &nodes[v]
	if j == 0 && nd.extra[par].valid {
		// Trunk gate at v (only recorded when it beat the plain join).
		e := nd.extra[par]
		a.Buffers = append(a.Buffers, Buffer{Node: v, Branch: -1})
		a.Gates = append(a.Gates, int(e.gate))
		par, j = int(e.fromPar), int(e.fromJ)
	}
	// Unfold the joins from the last child back to the first.
	idx := make([]int, len(kids))
	for i := len(kids) - 1; i >= 1; i-- {
		p := nd.jp[i][par][j]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid join pointer at node %d parity %d index %d", v, par, j))
		}
		if p.violated {
			a.Violations += int(p.left) + int(p.right) - j
		}
		idx[i] = int(p.right)
		j = int(p.left)
	}
	idx[0] = j
	for i, w := range kids {
		p := nd.kp[i][par][idx[i]]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid K pointer at node %d child %d parity %d index %d", v, i, par, idx[i]))
		}
		if p.gate >= 0 {
			role := w
			if len(kids) == 1 {
				// A gate on a degree-one node drives the whole (single)
				// downstream branch; report it as a trunk buffer.
				role = -1
			}
			a.Buffers = append(a.Buffers, Buffer{Node: v, Branch: role})
			a.Gates = append(a.Gates, int(p.gate))
		}
		if p.violated {
			a.Violations++
		}
		recoverLibOracle(rt, nodes, w, int(p.fromPar), int(p.fromJ), a)
	}
}
