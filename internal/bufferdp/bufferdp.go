// Package bufferdp implements Stage 3 of RABID: optimal length-based buffer
// insertion on a routed tree by dynamic programming (the paper's Figs. 6
// and 9). The algorithm is van Ginneken-style but, because candidates are
// indexed by the bounded unbuffered downstream wirelength j in [0, L-1]
// rather than by arbitrary (capacitance, slack) pairs, it runs in O(nL) for
// single-sink nets and O(mL^2 + nL) for nets with m sinks.
//
// Semantics (Fig. 3): the constraint is the *total* wirelength of
// interconnect driven by any gate — the driver or an inserted buffer — at
// most L tile units; a cost array entry C_v[j] is the cheapest buffering of
// the subtree below v whose unbuffered wirelength hanging at v totals j.
// Joins at branch nodes are therefore min-plus convolutions, and a node may
// receive several buffers: one decoupling each child branch and one driving
// the joined load (Fig. 8).
//
// Infeasible nets (a stretch through zero-site tiles longer than L) are
// handled with a violation bucket: the topmost index may absorb extra tiles
// at a large penalty per tile, never placing a buffer where no site exists.
// Such nets are reported with Violations > 0 — the "#fails" column of the
// experiments.
package bufferdp

import (
	"fmt"
	"math"

	"repro/internal/rtree"
)

// ViolationPenalty is the artificial cost per tile of wire driven beyond
// the length constraint. It dwarfs any realistic sum of Eq. (2) site costs,
// so the DP only violates the constraint when no feasible solution exists.
const ViolationPenalty = 1e7

// Buffer is one inserted buffer: it sits in the tile of route-tree node
// Node. Branch >= 0 means it decouples the edge from Node to child node
// Branch (Fig. 8(c)/(d)); Branch == -1 means it drives the node's joined
// downstream load (a trunk buffer, Fig. 8(a)/(b), or any buffer on a
// degree-one node).
type Buffer struct {
	Node   int
	Branch int
}

// Assignment is the result of buffer insertion on one net.
type Assignment struct {
	// Cost is the summed site cost q(v) of the chosen buffers, plus
	// ViolationPenalty per violating tile.
	Cost float64
	// Buffers lists every inserted buffer; a node appears once per buffer
	// placed in its tile.
	Buffers []Buffer
	// Violations is the number of tile units driven beyond the constraint
	// across all gates; zero means the length rule is fully satisfied.
	Violations int
	// Gates, when non-nil, parallels Buffers with the library gate index
	// chosen for each buffer (see AssignLib). The single-type DP leaves it
	// nil, which downstream consumers read as "the planning buffer".
	Gates []int
}

// BufferNodes returns the node index of each buffer (with multiplicity).
func (a Assignment) BufferNodes() []int {
	out := make([]int, len(a.Buffers))
	for i, b := range a.Buffers {
		out[i] = b.Node
	}
	return out
}

// Feasible reports whether the length constraint was met everywhere.
func (a Assignment) Feasible() bool { return a.Violations == 0 }

// kptr records how a per-child candidate K_i[j] was formed.
type kptr struct {
	fromJ    int16 // index into the child's C array
	buffered bool  // branch buffer placed at the current node
	violated bool  // advanced past the bucket limit (costs ViolationPenalty)
	valid    bool
}

// jptr records the split of a join cell between the accumulated array and
// the next child's K array.
type jptr struct {
	left, right int16
	violated    bool
	valid       bool
}

// DPStats counts the dynamic-programming work of one Assign call, for the
// "Stage-3 DP candidates generated vs. pruned" telemetry: a candidate is
// one (value, target-index) combination the DP evaluated; it is generated
// when it improves the cell it lands in and pruned when an earlier
// candidate already held a cheaper value. Joins counts the min-plus
// convolution combinations evaluated at branch nodes.
type DPStats struct {
	Candidates int
	Pruned     int
	Joins      int
}

// Assign computes the minimum-cost buffer assignment for the routed tree rt
// under length constraint L, where q(v) is the Eq. (2) site cost of the
// tile at route-tree node v (may be +Inf for tiles without free sites).
func Assign(rt *rtree.Tree, L int, q func(v int) float64) (Assignment, error) {
	return AssignCounted(rt, L, q, nil)
}

// AssignCounted is Assign with optional work counters: when st is non-nil
// it is overwritten with the DP statistics of this call. The counting is
// a handful of integer increments in loops the DP runs anyway, so passing
// nil and non-nil cost the same. It runs on a fresh Scratch; callers that
// assign many nets keep one Scratch and call its Assign instead.
func AssignCounted(rt *rtree.Tree, L int, q func(v int) float64, st *DPStats) (Assignment, error) {
	var s Scratch
	return s.Assign(rt, L, q, st)
}

// Scratch is the reusable working memory of the DP. Every per-node array
// is a fixed-width row of L+1 cells in one flat arena, sized once per call
// from the node count, so a warmed Scratch assigns a net without
// allocating anything but the returned Buffers slice. Rows are addressed
// by node: the C row of node v, and — because every child has exactly one
// parent — the K pointer row and the join pointer row of the edge into
// child w are stored at w. The zero value is ready to use; one Scratch
// serves one goroutine at a time.
type Scratch struct {
	c     []float64 // C_v rows
	kp    []kptr    // K pointers of the edge (parent(w), w), at row w
	jp    []jptr    // join pointers for folding child w in (w not a first child), at row w
	extra []int16   // per node: -1, or the source index when C_v[0] used a trunk buffer
	k, t  []float64 // the K_i row under construction and the fold target, one row each
	order []int     // post-order
	sel   []int     // per node: the chosen index of its K row during recovery
	bufs  []Buffer  // recovery output, copied out exactly sized
}

// grow sizes the arenas for n nodes of rows w cells wide.
func (s *Scratch) grow(n, w int) {
	if cells := n * w; cap(s.c) < cells {
		s.c = make([]float64, cells)
		s.kp = make([]kptr, cells)
		s.jp = make([]jptr, cells)
	}
	if cap(s.extra) < n {
		s.extra = make([]int16, n)
		s.sel = make([]int, n)
	}
	if cap(s.k) < w {
		s.k = make([]float64, w)
		s.t = make([]float64, w)
	}
	s.c, s.kp, s.jp = s.c[:n*w], s.kp[:n*w], s.jp[:n*w]
	s.extra, s.sel = s.extra[:n], s.sel[:n]
	s.k, s.t = s.k[:w], s.t[:w]
}

// Assign is AssignCounted on the scratch's arenas. The arithmetic is the
// same in the same order, so results, counters and tie-breaks are
// identical to a fresh Scratch's.
func (s *Scratch) Assign(rt *rtree.Tree, L int, q func(v int) float64, st *DPStats) (Assignment, error) {
	if L < 1 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d < 1", L) //rabid:allow allocfree cold argument-error path
	}
	if L > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d too large", L) //rabid:allow allocfree cold argument-error path
	}
	n := rt.NumNodes()
	if n == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty tree")
	}
	inf := math.Inf(1)
	candidates, pruned, joins := 0, 0, 0

	// Arrays run from 0 to L inclusive. Index L — a full constraint's worth
	// of unbuffered wire — is special: it cannot advance another tile
	// without violating, but it may be consumed by a trunk buffer at the
	// same node (which drives exactly j units, Fig. 8(a)) or by the driver
	// at the root (matching the single-sink algorithm's return of
	// min{C_v[j] : par(v)=s}, which lets the driver reach L).
	m := L
	w := m + 1
	s.grow(n, w)
	s.order = rt.PostOrderInto(s.order)

	for _, v := range s.order {
		kids := rt.Children(v)
		cv := s.c[v*w : v*w+w]
		s.extra[v] = -1
		if len(kids) == 0 {
			// Leaf: a sink (or a single-tile net's root). No wire hangs
			// below it, and the sink pin terminates any length count, so
			// every index is free (Step 1 of Fig. 6).
			clear(cv)
			continue
		}
		qa := q(v)
		// Build K_i for each child — advance one tile, or buffer here — and
		// fold it into the running join. K_0 is built straight into C_v,
		// which then ping-pongs with the fold buffer t as the accumulator.
		acc := cv
		for i, c := range kids {
			k := s.k
			if i == 0 {
				k = cv
			}
			kp := s.kp[c*w : c*w+w]
			clear(kp)
			cw := s.c[c*w : c*w+w]
			for j := range k {
				k[j] = inf
			}
			// AdvanceTile: one more tile of wire on the way to v.
			for j := 1; j <= m; j++ {
				if cw[j-1] < k[j] {
					k[j] = cw[j-1]
					kp[j] = kptr{fromJ: int16(j - 1), valid: true} //rabid:allow narrowcast j <= m = L, and L <= MaxInt16 is checked on entry
					candidates++
				}
			}
			// Violation bucket: stay at the top index, paying the penalty.
			if cw[m] < inf {
				if cc := cw[m] + ViolationPenalty; cc < k[m] {
					k[m] = cc
					kp[m] = kptr{fromJ: int16(m), violated: true, valid: true} //rabid:allow narrowcast m = L, and L <= MaxInt16 is checked on entry
					candidates++
				} else {
					pruned++
				}
			}
			// BufferTile: a buffer at v decouples and drives this branch
			// (1 tile of edge + the child's unbuffered load <= L).
			if !math.IsInf(qa, 1) {
				bestJ, bestC := -1, inf
				for j := 0; j <= L-1; j++ {
					if cw[j] < bestC {
						bestC, bestJ = cw[j], j
					}
				}
				if bestJ >= 0 {
					if qa+bestC < k[0] {
						k[0] = qa + bestC
						kp[0] = kptr{fromJ: int16(bestJ), buffered: true, valid: true}
						candidates++
					} else {
						pruned++
					}
				}
			}
			if i == 0 {
				continue
			}
			// JoinChildren: min-plus convolution, folding children in order.
			nxt := cv
			if &acc[0] == &cv[0] {
				nxt = s.t
			}
			np := s.jp[c*w : c*w+w]
			clear(np)
			for j := range nxt {
				nxt[j] = inf
			}
			for j1 := 0; j1 <= m; j1++ {
				if math.IsInf(acc[j1], 1) {
					continue
				}
				for j2 := 0; j2 <= m; j2++ {
					if math.IsInf(k[j2], 1) {
						continue
					}
					sum := acc[j1] + k[j2]
					tgt := j1 + j2
					viol := false
					if tgt > m {
						// Joint load exceeds the bucket; park at the top
						// with a penalty per excess tile.
						sum += float64(tgt-m) * ViolationPenalty
						tgt = m
						viol = true
					}
					joins++
					if sum < nxt[tgt] {
						nxt[tgt] = sum
						np[tgt] = jptr{left: int16(j1), right: int16(j2), violated: viol, valid: true}
						candidates++
					} else {
						pruned++
					}
				}
			}
			acc = nxt
		}
		// C_v starts as the joined array.
		if &acc[0] != &cv[0] {
			copy(cv, acc)
		}
		// BufferMultiChildren: for branch nodes, a trunk buffer at v may
		// drive the joined load (Fig. 8(a)/(b)).
		if len(kids) >= 2 && !math.IsInf(qa, 1) {
			bestJ, bestC := -1, inf
			for j := 0; j <= m; j++ {
				if cv[j] < bestC {
					bestC, bestJ = cv[j], j
				}
			}
			if bestJ >= 0 {
				if qa+bestC < cv[0] {
					cv[0] = qa + bestC
					s.extra[v] = int16(bestJ)
					candidates++
				} else {
					pruned++
				}
			}
		}
	}
	if st != nil {
		*st = DPStats{Candidates: candidates, Pruned: pruned, Joins: joins}
	}

	// The answer is the cheapest root entry; index L lets the driver itself
	// drive a full constraint's worth of wire.
	bestJ, bestC := -1, inf
	for j, c := range s.c[:w] {
		if c < bestC {
			bestC, bestJ = c, j
		}
	}
	if bestJ < 0 {
		return Assignment{}, fmt.Errorf("bufferdp: no solution (unexpected: violation buckets should always apply)")
	}
	a := Assignment{Cost: bestC}
	s.bufs = s.bufs[:0]
	s.recover(rt, w, 0, bestJ, &a)
	if len(s.bufs) > 0 {
		a.Buffers = make([]Buffer, len(s.bufs)) //rabid:allow allocfree the returned assignment owns its buffer list
		copy(a.Buffers, s.bufs)
	}
	return a, nil
}

// recover replays the DP decisions top-down, collecting buffers into
// s.bufs and violation counts into a. v is the node, j the chosen index of
// C_v, w the row width.
func (s *Scratch) recover(rt *rtree.Tree, w, v, j int, a *Assignment) {
	kids := rt.Children(v)
	if len(kids) == 0 {
		return
	}
	if j == 0 && s.extra[v] >= 0 {
		// Trunk buffer at v (only set when it beat the plain join).
		s.bufs = append(s.bufs, Buffer{Node: v, Branch: -1})
		j = int(s.extra[v])
	}
	// Unfold the joins from the last child back to the first.
	for i := len(kids) - 1; i >= 1; i-- {
		c := kids[i]
		p := s.jp[c*w+j]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid join pointer at node %d index %d", v, j)) //rabid:allow allocfree panic path: a corrupted DP table
		}
		if p.violated {
			a.Violations += int(p.left) + int(p.right) - j
		}
		s.sel[c] = int(p.right)
		j = int(p.left)
	}
	s.sel[kids[0]] = j
	for i, c := range kids {
		p := s.kp[c*w+s.sel[c]]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid K pointer at node %d child %d index %d", v, i, s.sel[c])) //rabid:allow allocfree panic path: a corrupted DP table
		}
		if p.buffered {
			role := c
			if len(kids) == 1 {
				// A buffer on a degree-one node drives the whole (single)
				// downstream branch; report it as a trunk buffer.
				role = -1
			}
			s.bufs = append(s.bufs, Buffer{Node: v, Branch: role})
		}
		if p.violated {
			a.Violations++
		}
		s.recover(rt, w, c, int(p.fromJ), a)
	}
}
