package bufferdp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rtree"
)

// assignOracle is the buffer DP as it was before the Scratch arenas: fresh
// per-node slices for every K, join and C array, and a recursive recovery
// with a fresh index slice per node. Scratch.Assign must reproduce it —
// cost, buffers in order, violations and work counters — exactly.
// oracleNode holds the oracle's DP state for one tree node.
type oracleNode struct {
	c     []float64 // final cost array C_v
	k     [][]float64
	kp    [][]kptr
	jp    [][]jptr // jp[i] is the split used when folding child i (i >= 1)
	acc   [][]float64
	extra []int16 // per index: -1, or the source index when C_v[j] used a trunk buffer
}

func assignOracle(rt *rtree.Tree, L int, q func(v int) float64, st *DPStats) (Assignment, error) {
	if L < 1 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d < 1", L)
	}
	if L > math.MaxInt16 {
		return Assignment{}, fmt.Errorf("bufferdp: length constraint %d too large", L)
	}
	n := rt.NumNodes()
	if n == 0 {
		return Assignment{}, fmt.Errorf("bufferdp: empty tree")
	}
	nodes := make([]oracleNode, n)
	inf := math.Inf(1)
	candidates, pruned, joins := 0, 0, 0

	// Arrays run from 0 to L inclusive. Index L — a full constraint's worth
	// of unbuffered wire — is special: it cannot advance another tile
	// without violating, but it may be consumed by a trunk buffer at the
	// same node (which drives exactly j units, Fig. 8(a)) or by the driver
	// at the root (matching the single-sink algorithm's return of
	// min{C_v[j] : par(v)=s}, which lets the driver reach L).
	m := L

	for _, v := range rt.PostOrder() {
		kids := rt.Children(v)
		nd := &nodes[v]
		if len(kids) == 0 {
			// Leaf: a sink (or a single-tile net's root). No wire hangs
			// below it, and the sink pin terminates any length count, so
			// every index is free (Step 1 of Fig. 6).
			nd.c = make([]float64, m+1)
			continue
		}
		// Build K_i for each child: advance one tile, or buffer here.
		nd.k = make([][]float64, len(kids))
		nd.kp = make([][]kptr, len(kids))
		for i, w := range kids {
			cw := nodes[w].c
			k := make([]float64, m+1)
			kp := make([]kptr, m+1)
			for j := range k {
				k[j] = inf
			}
			// AdvanceTile: one more tile of wire on the way to v.
			for j := 1; j <= m; j++ {
				if j-1 < len(cw) && cw[j-1] < k[j] {
					k[j] = cw[j-1]
					kp[j] = kptr{fromJ: int16(j - 1), valid: true}
					candidates++
				}
			}
			// Violation bucket: stay at the top index, paying the penalty.
			if top := len(cw) - 1; top >= 0 && cw[top] < inf {
				if c := cw[top] + ViolationPenalty; c < k[m] {
					k[m] = c
					kp[m] = kptr{fromJ: int16(top), violated: true, valid: true}
					candidates++
				} else {
					pruned++
				}
			}
			// BufferTile: a buffer at v decouples and drives this branch
			// (1 tile of edge + the child's unbuffered load <= L).
			if qa := q(v); !math.IsInf(qa, 1) {
				bestJ, bestC := -1, inf
				for j := 0; j < len(cw) && j <= L-1; j++ {
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
			nd.k[i] = k
			nd.kp[i] = kp
		}
		// JoinChildren: min-plus convolution, folding children in order.
		acc := nd.k[0]
		nd.acc = make([][]float64, len(kids))
		nd.jp = make([][]jptr, len(kids))
		nd.acc[0] = acc
		for i := 1; i < len(kids); i++ {
			nxt := make([]float64, m+1)
			np := make([]jptr, m+1)
			for j := range nxt {
				nxt[j] = inf
			}
			for j1 := 0; j1 <= m; j1++ {
				if math.IsInf(acc[j1], 1) {
					continue
				}
				for j2 := 0; j2 <= m; j2++ {
					if math.IsInf(nd.k[i][j2], 1) {
						continue
					}
					sum := acc[j1] + nd.k[i][j2]
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
			nd.acc[i] = acc
			nd.jp[i] = np
		}
		// C_v starts as the joined array.
		nd.c = append([]float64(nil), acc...)
		nd.extra = make([]int16, m+1)
		for j := range nd.extra {
			nd.extra[j] = -1
		}
		// BufferMultiChildren: for branch nodes, a trunk buffer at v may
		// drive the joined load (Fig. 8(a)/(b)).
		if len(kids) >= 2 {
			if qa := q(v); !math.IsInf(qa, 1) {
				bestJ, bestC := -1, inf
				for j := 0; j <= m; j++ {
					if acc[j] < bestC {
						bestC, bestJ = acc[j], j
					}
				}
				if bestJ >= 0 {
					if qa+bestC < nd.c[0] {
						nd.c[0] = qa + bestC
						nd.extra[0] = int16(bestJ)
						candidates++
					} else {
						pruned++
					}
				}
			}
		}
	}
	if st != nil {
		*st = DPStats{Candidates: candidates, Pruned: pruned, Joins: joins}
	}

	// The answer is the cheapest root entry; index L lets the driver itself
	// drive a full constraint's worth of wire.
	root := &nodes[0]
	bestJ, bestC := -1, inf
	for j, c := range root.c {
		if c < bestC {
			bestC, bestJ = c, j
		}
	}
	if bestJ < 0 {
		return Assignment{}, fmt.Errorf("bufferdp: no solution (unexpected: violation buckets should always apply)")
	}
	a := Assignment{Cost: bestC}
	recoverOracle(rt, nodes, 0, bestJ, &a)
	return a, nil
}

// recoverOracle replays the DP decisions top-down, collecting buffers and
// violation counts. v is the node, j the chosen index of C_v.
func recoverOracle(rt *rtree.Tree, nodes []oracleNode, v, j int, a *Assignment) {
	kids := rt.Children(v)
	if len(kids) == 0 {
		return
	}
	nd := &nodes[v]
	if nd.extra != nil && j == 0 && nd.extra[0] >= 0 {
		// Trunk buffer at v (only set when it beat the plain join).
		a.Buffers = append(a.Buffers, Buffer{Node: v, Branch: -1})
		j = int(nd.extra[0])
	}
	// Unfold the joins from the last child back to the first.
	idx := make([]int, len(kids))
	for i := len(kids) - 1; i >= 1; i-- {
		p := nd.jp[i][j]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid join pointer at node %d index %d", v, j))
		}
		if p.violated {
			a.Violations += int(p.left) + int(p.right) - j
		}
		idx[i] = int(p.right)
		j = int(p.left)
	}
	idx[0] = j
	for i, w := range kids {
		p := nd.kp[i][idx[i]]
		if !p.valid {
			panic(fmt.Sprintf("bufferdp: invalid K pointer at node %d child %d index %d", v, i, idx[i]))
		}
		if p.buffered {
			role := w
			if len(kids) == 1 {
				// A buffer on a degree-one node drives the whole (single)
				// downstream branch; report it as a trunk buffer.
				role = -1
			}
			a.Buffers = append(a.Buffers, Buffer{Node: v, Branch: role})
		}
		if p.violated {
			a.Violations++
		}
		recoverOracle(rt, nodes, w, int(p.fromJ), a)
	}
}

// randomSiteCosts draws a per-node site cost: mostly finite, with some
// tiles blocked (+Inf) and some equal costs to exercise tie-breaking.
func randomSiteCosts(r *rand.Rand, n int) []float64 {
	qs := make([]float64, n)
	for v := range qs {
		switch r.Intn(6) {
		case 0:
			qs[v] = math.Inf(1)
		case 1:
			qs[v] = 1
		default:
			qs[v] = r.Float64() * 3
		}
	}
	return qs
}

// TestScratchReuseMatchesFresh runs one dirty Scratch over random trees of
// varying size and length constraint, and requires every Assignment and
// DPStats to be DeepEqual to a fresh call's and to the pre-arena oracle's.
// Sizes and L go up and down, so rows are reused at other widths and stale
// cells from larger nets sit beyond the live arena.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var sc Scratch
	r := rand.New(rand.NewSource(7))
	for it := 0; it < 400; it++ {
		rt := randomTree(r, 1+r.Intn(40))
		L := 1 + r.Intn(12)
		q := qFromSlice(randomSiteCosts(r, rt.NumNodes()))
		var stGot, stFresh, stOracle DPStats
		got, err := sc.Assign(rt, L, q, &stGot)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := AssignCounted(rt, L, q, &stFresh)
		if err != nil {
			t.Fatal(err)
		}
		want, err := assignOracle(rt, L, q, &stOracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) || !reflect.DeepEqual(stGot, stFresh) {
			t.Fatalf("iteration %d (n=%d, L=%d): reused scratch differs from fresh\n got   %+v %+v\n fresh %+v %+v",
				it, rt.NumNodes(), L, got, stGot, fresh, stFresh)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stGot, stOracle) {
			t.Fatalf("iteration %d (n=%d, L=%d): scratch differs from oracle\n got  %+v %+v\n want %+v %+v",
				it, rt.NumNodes(), L, got, stGot, want, stOracle)
		}
	}
}

// TestAssignZeroAllocSteadyState: with a warmed Scratch, a DP run
// allocates exactly once — the returned Buffers slice.
func TestAssignZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rt := randomTree(r, 60)
	qs := make([]float64, rt.NumNodes())
	for v := range qs {
		qs[v] = 1 + float64(v%3)
	}
	q := qFromSlice(qs)
	var sc Scratch
	var st DPStats
	a, err := sc.Assign(rt, 3, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Buffers) == 0 {
		t.Fatal("workload places no buffers; the contract needs a non-empty result")
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := sc.Assign(rt, 3, q, &st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Fatalf("Scratch.Assign with a warmed scratch: %v allocs/run, want exactly 1 (the Buffers slice)", avg)
	}
}
