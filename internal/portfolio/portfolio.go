// Package portfolio is an instance-probing solver portfolio for the
// max-flow engines in this repository. The source paper's FFMR
// algorithm is designed for small-world graphs: its round count is
// bounded below by the source-sink distance, and its per-round cost by
// the shuffle volume. Both assumptions fail off the small-world regime
// — high-diameter graphs (lattices, road-like networks) blow up the
// round count, and scale-free graphs carry a large low-degree fringe
// that inflates every round's shuffle for no flow. This package probes
// an instance cheaply, then composes the right pipeline:
//
//   - a double-sweep diameter estimate (two host-side BFS runs over the
//     in-memory input, graph.HopDistances: one from the source, one
//     from the farthest vertex found) and a degree-distribution fit
//     (graphgen.PowerLawFit); neither runs a MapReduce job;
//   - Choose turns the probe into a Decision: solve with FFMR or the
//     synchronous push-relabel engine (internal/prflow), optionally
//     after the scale-free core reduction (internal/prep);
//   - the "auto" engine registered with core.RegisterEngine executes
//     the decision, lifts reduced flows back with prep.Uncontract,
//     verifies the lift with core.CheckAssignment, and persists the
//     standard final residual state under the caller's path prefix, so
//     downstream consumers (Validate, dynamic snapshots, the service)
//     cannot tell which pipeline ran.
package portfolio

import (
	"fmt"
	"math"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/prep"
	_ "ffmr/internal/prflow" // register the "prflow" engine for decisions
)

// EngineName is the core.Options.Engine value this package registers.
const EngineName = "auto"

func init() {
	core.RegisterEngine(EngineName, run)
}

// Probe is what the portfolio knows about an instance before solving
// it.
type Probe struct {
	Vertices int
	Edges    int
	// DiameterEstimate is the double-sweep BFS lower bound on the
	// graph's diameter: the larger eccentricity of the source and of the
	// vertex farthest from it, which two runs of the paper's MR-BFS
	// would report.
	DiameterEstimate int
	// SinkDistance is the source-sink hop distance (-1 if unreachable).
	SinkDistance int
	// Fit summarizes the degree distribution.
	Fit graphgen.DegreeFit
	// BFSWallTime is the host time of the two sweeps.
	BFSWallTime time.Duration
}

// Decision is the portfolio's plan for an instance.
type Decision struct {
	// Engine is "ffmr" or "prflow" (never "auto").
	Engine string
	// Reduce applies the prep core reduction before solving.
	Reduce bool
	// Reason is a human-readable justification, logged and used in
	// benchmark reports.
	Reason string
}

// Thresholds for Choose, exported for tests and experiments.
const (
	// ReduceLowDegreeFrac: reduce when at least this fraction of
	// vertices is peelable (degree <= 2). Barabási-Albert graphs with
	// m=2 sit near 0.5; Watts-Strogatz and grids near 0.
	ReduceLowDegreeFrac = 0.25
	// PRFlowDiameterFactor and PRFlowMinDiameter: use push-relabel when
	// the diameter estimate is at least factor*log2(n) and at least the
	// minimum — i.e. the instance is decisively not small-world, so
	// FFMR would pay at least diameter rounds.
	PRFlowDiameterFactor = 3.0
	PRFlowMinDiameter    = 12
)

// ProbeInstance measures the instance with a double-sweep BFS and a
// degree fit, both over the in-memory input. The sweeps are host-side
// because a probe must cost less than the rounds it saves: run as
// MapReduce jobs they would be O(diameter) rounds themselves, which is
// what a high-diameter verdict exists to avoid. cluster, reducers,
// pathPrefix and keep are unused.
func ProbeInstance(_ *mapreduce.Cluster, in *graph.Input, _ int, _ string, _ bool) (*Probe, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("portfolio: probe: %w", err)
	}
	p := &Probe{
		Vertices: in.NumVertices,
		Edges:    len(in.Edges),
		Fit:      graphgen.PowerLawFit(in),
	}
	start := time.Now()
	adj := graph.Adjacency(in)
	dist := graph.HopDistances(adj, in.Source)
	p.SinkDistance = int(dist[in.Sink])
	// The far vertex is the smallest ID at the largest distance.
	far := in.Source
	for u, d := range dist {
		if d > dist[far] {
			far = graph.VertexID(u)
		}
	}
	p.DiameterEstimate = int(dist[far])
	// Second sweep from the eccentric vertex of the first.
	if far != in.Source {
		for _, d := range graph.HopDistances(adj, far) {
			p.DiameterEstimate = max(p.DiameterEstimate, int(d))
		}
	}
	p.BFSWallTime = time.Since(start)
	return p, nil
}

// Choose maps a probe to a plan. The rules are deliberately coarse —
// the probe separates the generator families cleanly (see the package
// tests), and a misclassification costs performance, never
// correctness, because every pipeline is exact.
func Choose(p *Probe) Decision {
	d := Decision{Engine: "ffmr"}
	if p.Fit.FracLowDegree >= ReduceLowDegreeFrac {
		d.Reduce = true
		d.Reason = fmt.Sprintf("scale-free fringe: %.0f%% of vertices peelable (alpha %.2f); ",
			100*p.Fit.FracLowDegree, p.Fit.Alpha)
	}
	logN := math.Log2(float64(p.Vertices) + 1)
	if p.DiameterEstimate >= PRFlowMinDiameter &&
		float64(p.DiameterEstimate) >= PRFlowDiameterFactor*logN {
		d.Engine = "prflow"
		d.Reason += fmt.Sprintf("high diameter ~%d >= %.0f (3*log2 n): push-relabel over FFMR",
			p.DiameterEstimate, PRFlowDiameterFactor*logN)
	} else {
		d.Reason += fmt.Sprintf("small-world diameter ~%d (sink at %d): FFMR",
			p.DiameterEstimate, p.SinkDistance)
	}
	return d
}

// run is the "auto" core.EngineFunc: probe, choose, execute, and leave
// behind the same persisted state as any other engine.
func run(cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) (*core.Result, error) {
	fs := cluster.FS
	log := obsv.Or(opts.Log).With("run", EngineName)
	start := time.Now()

	probe, err := ProbeInstance(cluster, in, 0, "", false)
	if err != nil {
		return nil, err
	}
	dec := Choose(probe)
	log.Info("portfolio decision",
		"engine", dec.Engine,
		"reduce", dec.Reduce,
		"reason", dec.Reason,
		"diameter", probe.DiameterEstimate,
		"sink_dist", probe.SinkDistance,
		"low_degree_frac", probe.Fit.FracLowDegree)

	var red *prep.Reduction
	if dec.Reduce {
		red, err = prep.Reduce(in)
		if err != nil {
			return nil, err
		}
		if red.Stats.EdgesRemovedFrac() < 0.10 {
			// The fringe did not materialize; reduction overhead is not
			// worth a sub-10% edge saving.
			log.Info("portfolio reduction skipped",
				"removed_frac", red.Stats.EdgesRemovedFrac())
			red = nil
		} else {
			log.Info("portfolio reduction",
				"vertices_peeled", red.Stats.VerticesPeeled,
				"edges_before", red.Stats.OriginalEdges,
				"edges_after", red.Stats.CoreEdges,
				"gadgets", red.Stats.Gadgets)
		}
	}

	if red == nil {
		// Direct: run the chosen engine in place, under the caller's own
		// prefix, so its persisted state is already where it belongs.
		direct := opts
		direct.Engine = dec.Engine
		res, err := core.Run(cluster, in, direct)
		if err != nil {
			return nil, err
		}
		res.TotalWallTime = time.Since(start)
		return res, nil
	}

	// Reduced: solve the core under a sub-prefix, lift its flow vector
	// back to the original instance, verify, and persist the lifted state
	// under the caller's prefix.
	coreOpts := opts
	coreOpts.Engine = dec.Engine
	coreOpts.PathPrefix = opts.PathPrefix + "core/"
	coreRes, err := core.Run(cluster, red.Core, coreOpts)
	if err != nil {
		return nil, fmt.Errorf("portfolio: core solve: %w", err)
	}
	flows, err := red.Uncontract(coreRes.Flows)
	if err != nil {
		return nil, err
	}
	// Proof-carrying check of the whole reduce/solve/lift pipeline.
	if err := core.CheckAssignment(in, flows, coreRes.MaxFlow); err != nil {
		return nil, fmt.Errorf("portfolio: lifted flow failed verification: %w", err)
	}
	if err := core.WriteEngineState(fs, in, opts, coreRes.Rounds, flows); err != nil {
		return nil, err
	}
	if !opts.KeepIntermediate {
		fs.DeletePrefix(coreOpts.PathPrefix)
	}

	res := &core.Result{
		Variant:         coreRes.Variant,
		MaxFlow:         coreRes.MaxFlow,
		Rounds:          coreRes.Rounds,
		Converged:       coreRes.Converged,
		Flows:           flows,
		RoundStats:      coreRes.RoundStats,
		TotalSimTime:    coreRes.TotalSimTime,
		TotalWallTime:   time.Since(start),
		InputGraphBytes: coreRes.InputGraphBytes,
		MaxGraphBytes:   coreRes.MaxGraphBytes,
		RunSpan:         coreRes.RunSpan,
	}
	log.Info("portfolio done",
		"max_flow", res.MaxFlow,
		"rounds", res.Rounds,
		"engine", dec.Engine,
		"reduced", true,
		"wall", res.TotalWallTime)
	return res, nil
}
