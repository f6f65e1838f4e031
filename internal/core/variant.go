package core

import (
	"fmt"
	"log/slog"

	"ffmr/internal/trace"
)

// Variant selects which FFMR algorithm version to run. Each variant
// includes the optimizations of the previous ones, matching the paper's
// cumulative evaluation (Fig. 6).
type Variant int

const (
	// FF1 is the baseline parallel Ford-Fulkerson of Section III:
	// speculative incremental path finding, bi-directional search,
	// multiple excess paths, accumulator-based conflict resolution, and
	// augmenting-path acceptance at the sink vertex's reducer.
	FF1 Variant = iota + 1
	// FF2 adds the stateful aug_proc extension (Section IV-A): candidate
	// augmenting paths are generated in the REDUCE function and sent to
	// an external accumulator process over persistent connections instead
	// of being shuffled to the sink vertex.
	FF2
	// FF3 adds the schimmy design pattern (Section IV-B): master vertex
	// records are not re-emitted as intermediate records; reducers
	// merge-join against the previous round's partition-aligned output.
	FF3
	// FF4 adds object-instantiation elimination (Section IV-C): workers
	// decode into preallocated, reused buffers.
	FF4
	// FF5 adds redundant-message prevention (Section IV-D): the per-vertex
	// excess-path limit k becomes the vertex's in-degree and each vertex
	// remembers which excess path it extended along each edge, re-sending
	// only when the sent path saturates.
	FF5
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case FF1:
		return "FF1"
	case FF2:
		return "FF2"
	case FF3:
		return "FF3"
	case FF4:
		return "FF4"
	case FF5:
		return "FF5"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// features decomposes a variant into its optimization flags.
type features struct {
	augProc      bool // FF2+: external stateful accumulator
	schimmy      bool // FF3+: no master re-emission
	reuseObjects bool // FF4+: allocation-free decode/encode
	sentTracking bool // FF5: k = in-degree + sent-path bookkeeping
}

func (v Variant) features() features {
	return features{
		augProc:      v >= FF2,
		schimmy:      v >= FF3,
		reuseObjects: v >= FF4,
		sentTracking: v >= FF5,
	}
}

// TerminationMode selects the stopping rule of the multi-round driver.
type TerminationMode int

const (
	// TerminationMaximal stops exactly when the flow accepted so far is
	// maximum: the driver keeps every accepted delta in a flow vector and,
	// before round 1 and after every round that accepted a path, runs one
	// host BFS over the input's residual arcs. When the sink is no longer
	// reachable the run ends, after checking that the cut the BFS leaves
	// has the flow's value. The last round's deltas stay pending in the
	// AugmentedEdges file of the round after it. It is the default.
	TerminationMaximal TerminationMode = iota
	// TerminationPaper stops exactly per Fig. 2 of the paper: as soon as
	// the source-move or sink-move counter of a round is zero.
	TerminationPaper
	// TerminationQuiescent stops when a round sees no source-move, or no
	// sink-move, and additionally accepted no augmenting path: the paper's
	// rule made conservative, so it never stops in a round that still made
	// progress and leaves no accepted delta pending. It pays for one round
	// past the maximum, whose searches spread the excess-path frontier to
	// quiescence; the experiments select it because the paper's per-round
	// figures include that round.
	TerminationQuiescent
)

// String describes the termination mode; it is also the stop reason a
// run span and the driver's "run done" log line carry.
func (m TerminationMode) String() string {
	switch m {
	case TerminationMaximal:
		return "maximal"
	case TerminationPaper:
		return "paper"
	case TerminationQuiescent:
		return "quiescent"
	default:
		return fmt.Sprintf("TerminationMode(%d)", int(m))
	}
}

// Options configures an FFMR run. The zero value is completed by
// applyDefaults; use the ffmr facade package for a friendlier surface.
type Options struct {
	// Engine selects the solver. "" and "ffmr" run the paper's multi-round
	// MapReduce Ford-Fulkerson; any other value is resolved through
	// RegisterEngine ("prflow" — the synchronous parallel push-relabel
	// engine from internal/prflow — and "auto" — the instance-probing
	// portfolio driver from internal/portfolio; import those packages to
	// register them). Every engine persists the same final residual state
	// (round-NNNNN vertex records plus a pending-deltas file), so
	// Validate, dynamic snapshots and the service work with any of them.
	Engine string
	// Variant selects FF1..FF5 (default FF5).
	Variant Variant
	// K is the maximum number of source (and sink) excess paths stored
	// per vertex (default 4). FF5 ignores K and uses each vertex's
	// degree, per the paper's second redundancy-prevention strategy.
	K int
	// DisableBidirectional turns off sink-side excess paths
	// (Section III-B2). It is an ablation knob that reproduces the
	// paper's claim that bi-directional search halves the round count.
	DisableBidirectional bool
	// DisableMultiPaths forces K to 1, turning off the multiple
	// excess-path optimization of Section III-B3 (ablation knob).
	DisableMultiPaths bool
	// Termination selects the stopping rule (default TerminationMaximal).
	Termination TerminationMode
	// MaxRounds aborts runs that fail to converge (default 1000).
	MaxRounds int
	// Reducers is the number of reduce tasks per round (default: cluster
	// worker slots, capped at 64).
	Reducers int
	// KeepIntermediate retains each round's output files in the DFS
	// instead of deleting round r-1 after round r succeeds. Needed when
	// inspecting per-round graph state; default false.
	KeepIntermediate bool
	// UseCombiner enables map-side fragment combining. The paper
	// evaluated combiners for FFMR and found them counterproductive
	// ("we do not use any combiners as we found worse performance");
	// this knob exists to reproduce that ablation.
	UseCombiner bool
	// RoundCallback, if non-nil, is invoked after every completed round
	// with that round's statistics — live progress for long runs.
	RoundCallback func(RoundStat)
	// PathPrefix namespaces this run's DFS files (default "ffmr/").
	PathPrefix string
	// DeterministicAccept is ignored: aug_proc decides every round in
	// canonical order. The field remains only because the benchmark
	// module (cmd/ffbench) still sets it.
	//
	// Deprecated: it has no effect.
	DeterministicAccept bool
	// Tracer, if non-nil, records a run span with one child round span
	// per executed round, each annotated with the paper's Table I
	// metrics. The driver also installs the tracer on the cluster (job/
	// phase/task spans) and the aug_proc server (batch count,
	// round-end decision time) for the duration of the run.
	Tracer *trace.Tracer
	// Log, if non-nil, receives structured per-round progress events. The
	// driver installs it on the cluster for job-level events too.
	Log *slog.Logger
}

// WithDefaults returns a copy of o with every unset field resolved
// exactly as Run resolves it for a cluster with the given number of
// worker slots. Callers that build jobs against a run's persisted state
// (internal/dynamic) use it to learn the effective Reducers count, which
// fixes the partition alignment of every output file.
func (o Options) WithDefaults(clusterSlots int) Options {
	o.applyDefaults(clusterSlots)
	return o
}

func (o *Options) applyDefaults(clusterSlots int) {
	if o.Variant == 0 {
		o.Variant = FF5
	}
	if o.K <= 0 {
		o.K = 4
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 1000
	}
	if o.Reducers <= 0 {
		o.Reducers = clusterSlots
		if o.Reducers > 64 {
			o.Reducers = 64
		}
		if o.Reducers < 1 {
			o.Reducers = 1
		}
	}
	if o.DisableMultiPaths {
		o.K = 1
	}
	if o.PathPrefix == "" {
		o.PathPrefix = "ffmr/"
	}
}

func (o *Options) validate() error {
	if o.Variant < FF1 || o.Variant > FF5 {
		return fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	if o.Termination < TerminationMaximal || o.Termination > TerminationQuiescent {
		return fmt.Errorf("core: unknown termination mode %d", o.Termination)
	}
	return nil
}
