// Command rabid runs the four-stage RABID heuristic on a benchmark circuit
// (or a circuit JSON file) and prints stage-by-stage statistics in the
// layout of the paper's Table II.
//
// Usage:
//
//	rabid -bench apte                      # run a Table I benchmark
//	rabid -bench apte -grid 10x11          # coarser tiling (Table IV style)
//	rabid -bench xerox -sites 600          # smaller site budget (Table III)
//	rabid -circuit my.json                 # run a circuit from JSON
//	rabid -bench apte -twopin              # two-pin decomposition (Table V)
//
// Planning backends (see DESIGN.md "Planning backends"):
//
//	rabid -bench apte -backend rabid+lib   # buffer-library Stage-3 DP
//	rabid -bench apte -backend mcf         # multicommodity-flow engine
//	rabid -bench apte -backend rabid+lib -library lib.json  # custom library
//
// Telemetry and profiling:
//
//	rabid -bench apte -events run.jsonl    # structured event trace (JSON lines)
//	rabid -bench apte -metrics m.json      # aggregated metrics dump (JSON)
//	rabid -bench apte -summary             # human-readable metrics summary
//	rabid -bench apte -cpuprofile cpu.pb   # pprof CPU profile
//	rabid -bench apte -memprofile mem.pb   # pprof heap profile (written at exit)
//	rabid -bench apte -trace trace.out     # runtime/trace execution trace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	rabid "repro"
	"repro/internal/textable"
	"repro/internal/viz"
)

// config collects every flag of one invocation.
type config struct {
	bench, circuit string
	grid           string
	sites          int
	seed           int64
	twopin         bool
	annealed       bool
	alpha          float64
	passes         int
	workers        int
	backend        string
	library        string
	mcfPhases      int
	mcfEpsilon     float64
	svgOut         string
	heat           bool
	jsonOut        string
	retime         int
	// Telemetry and profiling outputs.
	eventsOut  string
	metricsOut string
	summary    bool
	cpuProfile string
	memProfile string
	traceOut   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.bench, "bench", "", "suite benchmark name (apte, xerox, hp, ami33, ami49, playout, ac3, xc5, hc7, a9c3)")
	flag.StringVar(&cfg.circuit, "circuit", "", "path to a circuit JSON file (alternative to -bench)")
	flag.StringVar(&cfg.grid, "grid", "", "override tiling as WxH (e.g. 20x22); must keep the chip aspect ratio")
	flag.IntVar(&cfg.sites, "sites", 0, "override the total buffer-site budget")
	flag.Int64Var(&cfg.seed, "seed", 0, "override the generation seed")
	flag.BoolVar(&cfg.twopin, "twopin", false, "decompose multi-sink nets into two-pin nets before planning")
	flag.Float64Var(&cfg.alpha, "alpha", 0.4, "Prim-Dijkstra radius/wirelength tradeoff")
	flag.IntVar(&cfg.passes, "passes", 3, "maximum Stage-2 rip-up-and-reroute passes")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines for the per-net stages (0 = all CPUs; results are identical for every value)")
	flag.StringVar(&cfg.backend, "backend", "", "planning engine: "+strings.Join(rabid.Backends(), ", ")+" (default rabid)")
	flag.StringVar(&cfg.library, "library", "", "buffer-library JSON file for -backend rabid+lib: out_res in ohms, in_cap in farads, intrinsic in seconds (default: the built-in 0.18 um library)")
	flag.IntVar(&cfg.mcfPhases, "mcf-phases", 0, "mcf engine: number of fractional-routing phases (0 = engine default)")
	flag.Float64Var(&cfg.mcfEpsilon, "mcf-epsilon", 0, "mcf engine: dual-update epsilon in (0,1) (0 = engine default)")
	flag.StringVar(&cfg.svgOut, "svg", "", "write an SVG of the final plan (blocks, congestion, routes, buffers)")
	flag.BoolVar(&cfg.heat, "heat", false, "print ASCII wire-congestion and buffer-density maps")
	flag.BoolVar(&cfg.annealed, "annealed", false, "place benchmark blocks with the simulated annealer instead of guillotine packing")
	flag.StringVar(&cfg.jsonOut, "json", "", "write a machine-readable run report (JSON) to this file")
	flag.IntVar(&cfg.retime, "retime", 0, "after planning, re-buffer the N most critical nets with the timing-driven pass")
	flag.StringVar(&cfg.eventsOut, "events", "", "write the run's telemetry event stream (JSON lines) to this file")
	flag.StringVar(&cfg.metricsOut, "metrics", "", "write aggregated run metrics (JSON) to this file")
	flag.BoolVar(&cfg.summary, "summary", false, "print a human-readable metrics summary after the run")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	flag.StringVar(&cfg.traceOut, "trace", "", "write a runtime/trace execution trace to this file")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rabid:", err)
		os.Exit(1)
	}
}

func run(cfg config) (err error) {
	c, params, err := load(cfg)
	if err != nil {
		return err
	}
	params.Alpha = cfg.alpha
	params.RouteOpt.Alpha = cfg.alpha
	params.MaxRipupPasses = cfg.passes
	params.Workers = cfg.workers
	params.Backend = cfg.backend
	params.MCFPhases = cfg.mcfPhases
	params.MCFEpsilon = cfg.mcfEpsilon
	if cfg.library != "" {
		b, err := os.ReadFile(cfg.library)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &params.Library); err != nil {
			return fmt.Errorf("parsing -library %s: %w", cfg.library, err)
		}
	}
	if params, err = rabid.NormalizeParams(params); err != nil {
		return err
	}
	if cfg.twopin {
		c = c.DecomposeTwoPin()
	}

	stopProfiles, err := rabid.StartProfiles(cfg.cpuProfile, cfg.traceOut, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	// Assemble the observer from the requested sinks; all-nil collapses to
	// nil and the pipeline runs with zero telemetry overhead.
	var observers []rabid.Observer
	var events *rabid.JSONObserver
	if cfg.eventsOut != "" {
		f, err := os.Create(cfg.eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events = rabid.NewJSONObserver(f)
		observers = append(observers, events)
	}
	var metrics *rabid.MetricsObserver
	if cfg.metricsOut != "" || cfg.summary {
		metrics = rabid.NewMetricsObserver()
		observers = append(observers, metrics)
	}
	params.Observer = rabid.MultiObserver(observers...)

	fmt.Printf("circuit %s: %d nets, %d sinks, %dx%d tiles of %.0f um, %d buffer sites\n",
		c.Name, len(c.Nets), c.TotalSinks(), c.GridW, c.GridH, c.TileUm, c.TotalBufferSites())
	if desc, ok := rabid.DescribeBackend(params.Backend); ok {
		fmt.Printf("backend %s: %s\n", params.Backend, desc)
	}
	res, err := rabid.Plan(context.Background(), c, params)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated edge capacity W(e) = %d\n\n", res.Capacity)
	t := textable.New("stage", "wc max", "wc avg", "overflow", "bd max", "bd avg",
		"#bufs", "#fails", "wl(mm)", "dmax(ps)", "davg(ps)", "cpu(s)")
	for _, s := range res.Stages {
		t.AddF(fmt.Sprintf("%d", s.Stage), s.WireMax, s.WireAvg, s.Overflows,
			s.BufMax, s.BufAvg, s.Buffers, s.Fails,
			int(s.WirelenMm+0.5), int(s.MaxDelayPs+0.5), int(s.AvgDelayPs+0.5),
			fmt.Sprintf("%.1f", s.CPU.Seconds()))
	}
	fmt.Print(t.String())
	if cfg.heat {
		fmt.Println("\nwire congestion (max incident w/W per tile):")
		fmt.Print(viz.ASCII(viz.WireHeat(res.Graph), c.GridW, c.GridH))
		fmt.Println("\nbuffer density (b/B per tile):")
		fmt.Print(viz.ASCII(viz.BufferHeat(res.Graph), c.GridW, c.GridH))
	}
	if cfg.retime > 0 {
		reports, err := rabid.RetimeCriticalNets(res, cfg.retime, rabid.DefaultLibrary018())
		if err != nil {
			return err
		}
		fmt.Printf("\ntiming-driven re-buffering of the %d most critical nets:\n", len(reports))
		rt := textable.New("net", "before(ps)", "after(ps)", "old bufs", "new bufs")
		for _, r := range reports {
			rt.AddF(fmt.Sprintf("%d", r.NetIndex), int(r.BeforeMaxPs+0.5), int(r.AfterMaxPs+0.5),
				r.OldBuffers, len(r.NewBuffers))
		}
		fmt.Print(rt.String())
	}
	if events != nil {
		if err := events.Err(); err != nil {
			return fmt.Errorf("writing %s: %w", cfg.eventsOut, err)
		}
		fmt.Printf("\nwrote %s\n", cfg.eventsOut)
	}
	if metrics != nil && cfg.metricsOut != "" {
		f, err := os.Create(cfg.metricsOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", cfg.metricsOut)
	}
	if metrics != nil && cfg.summary {
		fmt.Println("\nrun telemetry summary:")
		if err := metrics.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	if cfg.jsonOut != "" {
		rep, err := res.Report()
		if err != nil {
			return err
		}
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", cfg.jsonOut)
	}
	if cfg.svgOut != "" {
		svg := viz.SVG(c, viz.SVGOptions{Graph: res.Graph, Routes: res.Routes})
		if err := os.WriteFile(cfg.svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", cfg.svgOut)
	}
	return nil
}

func load(cfg config) (*rabid.Circuit, rabid.Params, error) {
	switch {
	case cfg.bench != "" && cfg.circuit != "":
		return nil, rabid.Params{}, fmt.Errorf("use either -bench or -circuit, not both")
	case cfg.circuit != "":
		f, err := os.Open(cfg.circuit)
		if err != nil {
			return nil, rabid.Params{}, err
		}
		defer f.Close()
		c, err := rabid.ReadCircuit(f)
		if err != nil {
			return nil, rabid.Params{}, err
		}
		return c, rabid.DefaultParams(), nil
	case cfg.bench != "":
		opt := rabid.GenOptions{Sites: cfg.sites, Seed: cfg.seed, Annealed: cfg.annealed}
		if cfg.grid != "" {
			if _, err := fmt.Sscanf(cfg.grid, "%dx%d", &opt.GridW, &opt.GridH); err != nil {
				return nil, rabid.Params{}, fmt.Errorf("bad -grid %q (want WxH): %v", cfg.grid, err)
			}
		}
		c, err := rabid.GenerateBenchmark(cfg.bench, opt)
		if err != nil {
			return nil, rabid.Params{}, err
		}
		return c, rabid.BenchmarkParams(cfg.bench), nil
	default:
		return nil, rabid.Params{}, fmt.Errorf("one of -bench or -circuit is required")
	}
}
