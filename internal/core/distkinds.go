package core

import (
	"encoding/binary"

	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/rpcutil"
)

// This file makes the core jobs runnable on the distributed backend
// (internal/distmr). Closures cannot cross a process boundary, so every
// job carries a Spec: a registered kind name plus hand-framed parameters
// (the rpcutil cursor every wire message uses) from which a worker — in
// this process or another — reconstructs the job's mappers, reducers,
// combiner and service connection. Any binary that links this package
// (the driver, cmd/ffmr-worker, tests) registers the same kinds at init.
// Params carry no version byte of their own: they travel inside a task
// descriptor, which is versioned (DESIGN.md §13).

// Job kind names registered with the distributed backend.
const (
	KindFFRound  = "ffmr/round"
	KindBFSRound = "bfs/round"
)

type ffRoundParams struct {
	Variant     Variant
	K           int
	Source      graph.VertexID
	Sink        graph.VertexID
	DeltasFile  string
	UseCombiner bool
	// ServiceAddr is the run's aug_proc server, the acceptance service of
	// every variant.
	ServiceAddr string
}

type bfsRoundParams struct {
	Round int64
}

func (p *ffRoundParams) append(b []byte) []byte {
	b = binary.AppendVarint(b, int64(p.Variant))
	b = binary.AppendVarint(b, int64(p.K))
	b = binary.AppendUvarint(b, uint64(p.Source))
	b = binary.AppendUvarint(b, uint64(p.Sink))
	b = rpcutil.AppendString(b, p.DeltasFile)
	b = rpcutil.AppendBool(b, p.UseCombiner)
	return rpcutil.AppendString(b, p.ServiceAddr)
}

func (p *ffRoundParams) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	p.Variant = Variant(d.Int("round variant"))
	p.K = d.Int("round k")
	p.Source = graph.VertexID(d.Uint32("round source"))
	p.Sink = graph.VertexID(d.Uint32("round sink"))
	p.DeltasFile = d.Str("round deltas file")
	p.UseCombiner = d.Bool("round combiner")
	p.ServiceAddr = d.Str("round aug_proc addr")
	return d.Finish("ffmr/round params")
}

func (p *bfsRoundParams) append(b []byte) []byte { return binary.AppendVarint(b, p.Round) }

func (p *bfsRoundParams) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	p.Round = d.Varint("bfs round")
	return d.Finish("bfs/round params")
}

func init() {
	distmr.RegisterKind(KindFFRound, func(params []byte) (*distmr.JobCode, error) {
		var p ffRoundParams
		if err := p.decode(params); err != nil {
			return nil, err
		}
		cfg := &runConfig{
			opts:       Options{Variant: p.Variant, K: p.K},
			feat:       p.Variant.features(),
			source:     p.Source,
			sink:       p.Sink,
			deltasFile: p.DeltasFile,
		}
		code := &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return newFFMapper(cfg) },
			NewReducer: func() mapreduce.Reducer { return newFFReducer(cfg) },
		}
		if p.UseCombiner {
			code.NewCombiner = newFFCombiner
		}
		client, err := DialAugProc(p.ServiceAddr)
		if err != nil {
			return nil, err
		}
		code.Service = client
		code.Close = client.Close
		return code, nil
	})

	distmr.RegisterKind(KindBFSRound, func(params []byte) (*distmr.JobCode, error) {
		var p bfsRoundParams
		if err := p.decode(params); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return &bfsMapper{round: p.Round} },
			NewReducer: func() mapreduce.Reducer { return &bfsReducer{} },
		}, nil
	})
}
