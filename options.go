package ffmr

import (
	"time"

	"ffmr/internal/core"
	"ffmr/internal/mapreduce"
)

// TerminationMode selects the multi-round stopping rule.
type TerminationMode int

const (
	// TerminationMaximal stops as soon as the flow accepted so far is
	// maximum, proven after each accepting round by one breadth-first
	// search over the residual arcs of the in-memory input (default).
	TerminationMaximal TerminationMode = iota
	// TerminationPaper stops exactly per Fig. 2 of the paper, as soon as
	// the source-move or sink-move counter reaches zero.
	TerminationPaper
)

// config collects the Compute settings before translation into the
// internal engine and algorithm options.
type config struct {
	nodes        int
	slotsPerNode int
	blockSize    int
	replication  int
	realistic    bool
	costModel    *mapreduce.CostModel

	opts core.Options
}

func defaultConfig() config {
	return config{
		nodes:        4,
		slotsPerNode: 4,
		blockSize:    4 << 20,
		replication:  2,
	}
}

// Option customizes Compute.
type Option func(*config)

// WithVariant selects the algorithm version (default FF5, the fastest).
func WithVariant(v Variant) Option {
	return func(c *config) { c.opts.Variant = core.Variant(v) }
}

// WithNodes sets the number of simulated cluster slave nodes (default 4;
// the paper uses 20).
func WithNodes(n int) Option {
	return func(c *config) { c.nodes = n }
}

// WithSlotsPerNode sets concurrent worker slots per node (default 4; the
// paper configures 15).
func WithSlotsPerNode(n int) Option {
	return func(c *config) { c.slotsPerNode = n }
}

// WithK sets the per-vertex excess-path limit k for FF1..FF4 (default 4).
// FF5 derives k from each vertex's degree, per the paper.
func WithK(k int) Option {
	return func(c *config) { c.opts.K = k }
}

// WithReducers sets the number of reduce tasks per round.
func WithReducers(n int) Option {
	return func(c *config) { c.opts.Reducers = n }
}

// WithMaxRounds bounds the number of max-flow rounds (default 1000).
func WithMaxRounds(n int) Option {
	return func(c *config) { c.opts.MaxRounds = n }
}

// WithTermination selects the stopping rule (default TerminationMaximal).
func WithTermination(m TerminationMode) Option {
	return func(c *config) { c.opts.Termination = core.TerminationMode(m) }
}

// WithoutBidirectionalSearch disables sink-side excess paths — the
// ablation for the paper's Section III-B2 optimization.
func WithoutBidirectionalSearch() Option {
	return func(c *config) { c.opts.DisableBidirectional = true }
}

// WithoutMultiplePaths stores a single excess path per vertex — the
// ablation for the paper's Section III-B3 optimization.
func WithoutMultiplePaths() Option {
	return func(c *config) { c.opts.DisableMultiPaths = true }
}

// WithRealisticCost applies the Hadoop-like cost model (per-round job
// overhead, disk and network bandwidth charges) to the simulated runtime.
// The default is a zero-overhead model in which simulated time reflects
// only measured computation.
func WithRealisticCost() Option {
	return func(c *config) { c.realistic = true }
}

// WithRoundOverhead sets a custom fixed per-round framework overhead for
// the simulated runtime (implies a realistic cost model).
func WithRoundOverhead(d time.Duration) Option {
	return func(c *config) {
		c.realistic = true
		cm := mapreduce.DefaultCostModel()
		cm.RoundOverhead = d
		c.costModel = &cm
	}
}

// WithBlockSize sets the simulated DFS block size in bytes (default 4 MiB
// here; HDFS commonly uses 64 MiB).
func WithBlockSize(n int) Option {
	return func(c *config) { c.blockSize = n }
}
