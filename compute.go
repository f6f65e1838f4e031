package ffmr

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
)

// RoundStat reports one MapReduce round of a Compute run; the fields
// correspond to the columns of the paper's Table I.
type RoundStat struct {
	Round          int
	AcceptedPaths  int64 // A-Paths
	SubmittedPaths int64
	MaxQueue       int64 // MaxQ of aug_proc
	FlowDelta      int64
	MapOutRecords  int64 // Map Out
	ShuffleBytes   int64 // Shuffle
	MaxRecordBytes int64
	OutputBytes    int64
	SimTime        time.Duration
	WallTime       time.Duration
}

// Result is the outcome of a Compute run.
type Result struct {
	// MaxFlow is the computed maximum flow value.
	MaxFlow int64
	// Variant is the algorithm version that ran.
	Variant Variant
	// Rounds is the number of max-flow rounds (excluding round #0, which
	// writes the vertex records), the paper's primary complexity measure.
	Rounds int
	// RoundStats has one entry per round; index 0 is round #0.
	RoundStats []RoundStat
	// SimTime is the modelled cluster runtime summed over rounds;
	// WallTime is the measured host time.
	SimTime  time.Duration
	WallTime time.Duration
	// GraphBytes is the size of the vertex records in the simulated DFS; the
	// paper's "Size" column. MaxGraphBytes is the largest per-round size
	// ("Max Size"), which grows as excess paths accumulate.
	GraphBytes    int64
	MaxGraphBytes int64
}

// Compute runs an FFMR maximum-flow computation on a simulated MapReduce
// cluster and returns the flow value with per-round statistics.
func Compute(g *Graph, options ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, opt := range options {
		opt(&cfg)
	}
	cluster := newCluster(&cfg)
	res, err := core.Run(cluster, g.input(), cfg.opts)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

func newCluster(cfg *config) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{
		Nodes:       cfg.nodes,
		BlockSize:   cfg.blockSize,
		Replication: cfg.replication,
	})
	cluster := mapreduce.NewCluster(cfg.nodes, cfg.slotsPerNode, fs)
	switch {
	case cfg.costModel != nil:
		cluster.Cost = *cfg.costModel
	case cfg.realistic:
		cluster.Cost = mapreduce.DefaultCostModel()
	default:
		cluster.Cost = mapreduce.ZeroCostModel()
	}
	return cluster
}

func convertResult(res *core.Result) *Result {
	out := &Result{
		MaxFlow:       res.MaxFlow,
		Variant:       Variant(res.Variant),
		Rounds:        res.Rounds,
		SimTime:       res.TotalSimTime,
		WallTime:      res.TotalWallTime,
		GraphBytes:    res.InputGraphBytes,
		MaxGraphBytes: res.MaxGraphBytes,
	}
	for _, rs := range res.RoundStats {
		out.RoundStats = append(out.RoundStats, RoundStat{
			Round:          rs.Round,
			AcceptedPaths:  rs.APaths,
			SubmittedPaths: rs.Submitted,
			MaxQueue:       rs.MaxQueue,
			FlowDelta:      rs.FlowDelta,
			MapOutRecords:  rs.MapOutRecords,
			ShuffleBytes:   rs.ShuffleBytes,
			MaxRecordBytes: rs.MaxRecordBytes,
			OutputBytes:    rs.OutputBytes,
			SimTime:        rs.SimTime,
			WallTime:       rs.WallTime,
		})
	}
	return out
}

// BFSResult reports a multi-round MapReduce BFS (the paper's baseline).
type BFSResult struct {
	// Rounds is the number of expansion rounds executed.
	Rounds int
	// SourceSinkDistance is the hop distance from source to sink, or -1
	// if the sink is unreachable.
	SourceSinkDistance int
	// Visited is the number of vertices reached from the source.
	Visited  int64
	SimTime  time.Duration
	WallTime time.Duration
}

// BFS runs the multi-round MapReduce breadth-first search the paper uses
// to estimate graph diameter and as a lower-bound baseline.
func BFS(g *Graph, options ...Option) (*BFSResult, error) {
	cfg := defaultConfig()
	for _, opt := range options {
		opt(&cfg)
	}
	cluster := newCluster(&cfg)
	res, err := core.RunBFS(cluster, g.input(), cfg.opts.Reducers, "")
	if err != nil {
		return nil, err
	}
	return &BFSResult{
		Rounds:             res.Rounds,
		SourceSinkDistance: res.SinkDist,
		Visited:            res.Visited,
		SimTime:            res.TotalSimTime,
		WallTime:           res.TotalWallTime,
	}, nil
}

// BSPResult reports a run of the Pregel/BSP translation of the
// algorithm (the paper's Section II-B conjecture that the ideas
// "translate to Pregel", implemented over the embedded BSP engine).
type BSPResult struct {
	MaxFlow    int64
	Supersteps int
	// Messages and MessageBytes are the BSP analogue of the MapReduce
	// version's intermediate records and shuffle bytes.
	Messages     int64
	MessageBytes int64
	WallTime     time.Duration
}

// ComputeBSP runs the bulk-synchronous-parallel (Pregel-style)
// translation of the max-flow algorithm. Relevant options:
// WithoutBidirectionalSearch, WithoutMultiplePaths, WithK,
// WithSlotsPerNode (worker partitions), WithMaxRounds (supersteps).
func ComputeBSP(g *Graph, options ...Option) (*BSPResult, error) {
	cfg := defaultConfig()
	for _, opt := range options {
		opt(&cfg)
	}
	bopts := core.BSPOptions{
		K:                    cfg.opts.K,
		DisableBidirectional: cfg.opts.DisableBidirectional,
		Workers:              cfg.nodes * cfg.slotsPerNode,
		MaxSupersteps:        cfg.opts.MaxRounds,
	}
	if cfg.opts.DisableMultiPaths {
		bopts.K = 1
	}
	res, err := core.RunBSP(g.input(), bopts)
	if err != nil {
		return nil, err
	}
	return &BSPResult{
		MaxFlow:      res.MaxFlow,
		Supersteps:   res.Supersteps,
		Messages:     res.Messages,
		MessageBytes: res.MessageBytes,
		WallTime:     res.WallTime,
	}, nil
}

// Sequential algorithm names accepted by ComputeSequential.
const (
	AlgoFordFulkerson = "ford-fulkerson-dfs"
	AlgoEdmondsKarp   = "edmonds-karp"
	AlgoDinic         = "dinic"
	AlgoPushRelabel   = "push-relabel"
	AlgoCapScaling    = "capacity-scaling"
)

// ComputeSequential runs a classical memory-resident max-flow algorithm
// on the graph — the baselines the paper contrasts with (Section II-A) —
// and returns the flow value. Accepted names are AlgoFordFulkerson,
// AlgoEdmondsKarp, AlgoDinic, AlgoPushRelabel and AlgoCapScaling.
func ComputeSequential(g *Graph, algorithm string) (int64, error) {
	net, err := maxflow.FromInput(g.input())
	if err != nil {
		return 0, err
	}
	for _, s := range maxflow.Solvers() {
		if s.Name == algorithm {
			return s.Run(net, g.Source(), g.Sink()), nil
		}
	}
	return 0, fmt.Errorf("ffmr: unknown sequential algorithm %q", algorithm)
}

// MinCut computes a minimum s-t cut: it returns the set of vertices on
// the source side (as a boolean slice indexed by vertex) and the cut
// capacity, which equals the maximum flow. The paper's motivating
// applications — community identification, link-spam detection, Sybil
// defense — all consume the cut rather than the flow value.
func MinCut(g *Graph) ([]bool, int64, error) {
	net, err := maxflow.FromInput(g.input())
	if err != nil {
		return nil, 0, err
	}
	flow := maxflow.Dinic(net, g.Source(), g.Sink())
	return net.MinCut(g.Source()), flow, nil
}
