// Package layers models metal-layer assignment for global nets. The
// paper's footnote to the problem formulation observes that "if some nets
// can be routed on higher metal layers while others cannot, different nets
// can have different L_i values depending on their layer; also, a larger
// value of L_i can be used in conjunction with wider wire width
// assignment." Thick top-level metal has a fraction of the sheet
// resistance, so a gate can drive much more of it before the slew rule
// trips.
//
// The package provides a layer stack, per-layer technology scaling, a
// promotion pass that assigns the longest (most slew-critical) nets to
// thick metal within a capacity budget and rederives their L_i from the
// slew target, and a per-net delay evaluation that respects each net's
// layer.
package layers

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/slew"
	"repro/internal/tech"
)

// Layer scales the base technology's wire parasitics.
type Layer struct {
	Name string
	// ResScale multiplies wire resistance per unit length (thick/wide
	// metal: well below 1).
	ResScale float64
	// CapScale multiplies wire capacitance per unit length (wider wires
	// have somewhat more capacitance).
	CapScale float64
}

// DefaultStack018 returns a two-entry stack: the default thin signal
// layers and a thick top-metal pair with 4x lower resistance and 15%
// higher capacitance per unit length.
func DefaultStack018() []Layer {
	return []Layer{
		{Name: "thin(M3/M4)", ResScale: 1, CapScale: 1},
		{Name: "thick(M5/M6)", ResScale: 0.25, CapScale: 1.15},
	}
}

// Tech returns the base technology with the layer's wire scaling applied.
func (l Layer) Tech(base tech.Tech) tech.Tech {
	t := base
	t.WireResPerUm *= l.ResScale
	t.WireCapPerUm *= l.CapScale
	return t
}

// Assignment maps each net to a stack index and its rederived L.
type Assignment struct {
	Stack []Layer
	// LayerOf[i] indexes Stack for net i.
	LayerOf []int
	// LOf[i] is the slew-derived tile length constraint for net i on its
	// layer.
	LOf []int
}

// Promote assigns the longest nets (by pin bounding-box half-perimeter,
// the pre-route estimate available at this stage) to the highest layer,
// within budgetFraction of all nets, and derives every net's L from the
// slew target on its layer. The stack must be ordered thin to thick.
func Promote(c *netlist.Circuit, base tech.Tech, stack []Layer, budgetFraction, slewTarget float64) (*Assignment, error) {
	if len(stack) == 0 {
		return nil, fmt.Errorf("layers: empty stack")
	}
	if budgetFraction < 0 || budgetFraction > 1 {
		return nil, fmt.Errorf("layers: budget fraction %g outside [0,1]", budgetFraction)
	}
	if slewTarget <= 0 {
		return nil, fmt.Errorf("layers: slew target %g must be positive", slewTarget)
	}
	// Per-layer L from the slew rule.
	lOfLayer := make([]int, len(stack))
	for i, l := range stack {
		e, err := slew.NewEvaluator(l.Tech(base), c.TileUm)
		if err != nil {
			return nil, err
		}
		lOfLayer[i] = e.DeriveL(slewTarget)
		if i > 0 && lOfLayer[i] < lOfLayer[i-1] {
			return nil, fmt.Errorf("layers: stack not ordered thin to thick (L %d < %d)",
				lOfLayer[i], lOfLayer[i-1])
		}
	}
	// Rank nets by bounding-box half-perimeter in tiles.
	type ranked struct{ idx, hpwl int }
	order := make([]ranked, len(c.Nets))
	for i, n := range c.Nets {
		minX, maxX := n.Source.Tile.X, n.Source.Tile.X
		minY, maxY := n.Source.Tile.Y, n.Source.Tile.Y
		for _, s := range n.Sinks {
			if s.Tile.X < minX {
				minX = s.Tile.X
			}
			if s.Tile.X > maxX {
				maxX = s.Tile.X
			}
			if s.Tile.Y < minY {
				minY = s.Tile.Y
			}
			if s.Tile.Y > maxY {
				maxY = s.Tile.Y
			}
		}
		order[i] = ranked{i, (maxX - minX) + (maxY - minY)}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].hpwl > order[b].hpwl })
	asg := &Assignment{
		Stack:   stack,
		LayerOf: make([]int, len(c.Nets)),
		LOf:     make([]int, len(c.Nets)),
	}
	top := len(stack) - 1
	budget := int(budgetFraction * float64(len(c.Nets)))
	for rank, r := range order {
		layer := 0
		if rank < budget {
			layer = top
		}
		asg.LayerOf[r.idx] = layer
		asg.LOf[r.idx] = lOfLayer[layer]
	}
	return asg, nil
}

// Apply returns a copy of the circuit with each net's L replaced by its
// layer-derived constraint, ready for core.Run.
func (a *Assignment) Apply(c *netlist.Circuit) *netlist.Circuit {
	cc := *c
	cc.Nets = make([]*netlist.Net, len(c.Nets))
	for i, n := range c.Nets {
		nn := *n
		nn.L = a.LOf[i]
		cc.Nets[i] = &nn
	}
	return &cc
}

// Evaluate computes max/avg sink delay over a completed run with each
// net's wire parasitics taken from its assigned layer and each buffer
// priced as the gate its assignment chose.
func (a *Assignment) Evaluate(res *core.Result, base tech.Tech) (maxPs, avgPs float64, err error) {
	evals := make([]delay.Evaluator, len(a.Stack))
	for i, l := range a.Stack {
		evals[i], err = delay.NewEvaluator(l.Tech(base), res.Circuit.TileUm)
		if err != nil {
			return 0, 0, err
		}
	}
	var st delay.Stats
	var ne core.NetEval
	for i, rt := range res.Routes {
		ds, err := ne.Delays(evals[a.LayerOf[i]], res.Params.Library, rt, res.Assignments[i])
		if err != nil {
			return 0, 0, err
		}
		st.Add(ds)
	}
	return st.MaxPs(), st.AvgPs(), nil
}
