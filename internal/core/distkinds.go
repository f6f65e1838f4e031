package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/rpcutil"
)

// This file makes the core jobs runnable on the distributed backend
// (internal/distmr). Closures cannot cross a process boundary, so every
// job carries a Spec: a registered kind name plus gob-encoded parameters
// from which a worker — in this process or another — reconstructs the
// job's mappers, reducers, combiner and service connection. Any binary
// that links this package (the driver, cmd/ffmr-worker, tests) registers
// the same kinds at init.

// Job kind names registered with the distributed backend.
const (
	KindFFConvert  = "ffmr/convert"
	KindFFRound    = "ffmr/round"
	KindBFSConvert = "bfs/convert"
	KindBFSRound   = "bfs/round"
)

type ffConvertParams struct {
	Source        graph.VertexID
	Sink          graph.VertexID
	Bidirectional bool
	SentTracking  bool
}

type ffRoundParams struct {
	Variant     Variant
	K           int
	Source      graph.VertexID
	Sink        graph.VertexID
	DeltasFile  string
	UseCombiner bool
	// ServiceAddr is the round's acceptance service: the aug_proc server
	// for FF2+, the driver's FF1 collector server otherwise.
	ServiceAddr string
}

type bfsConvertParams struct {
	Source graph.VertexID
}

type bfsRoundParams struct {
	Round int64
}

// mustEncodeParams gob-encodes a params struct. Encoding our own concrete
// structs with exported scalar fields cannot fail.
func mustEncodeParams(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("core: encode job params: %v", err))
	}
	return buf.Bytes()
}

func decodeParams(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("core: decode job params: %w", err)
	}
	return nil
}

func init() {
	distmr.RegisterKind(KindFFConvert, func(params []byte) (*distmr.JobCode, error) {
		var p ffConvertParams
		if err := decodeParams(params, &p); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper: newConvertMapper,
			NewReducer: func() mapreduce.Reducer {
				return &convertReducer{
					source:        p.Source,
					sink:          p.Sink,
					bidirectional: p.Bidirectional,
					sentTracking:  p.SentTracking,
				}
			},
		}, nil
	})

	distmr.RegisterKind(KindFFRound, func(params []byte) (*distmr.JobCode, error) {
		var p ffRoundParams
		if err := decodeParams(params, &p); err != nil {
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
		if cfg.feat.augProc {
			client, err := DialAugProc(p.ServiceAddr)
			if err != nil {
				return nil, err
			}
			code.Service = client
			code.Close = client.Close
		} else {
			sink, err := dialFF1Sink(p.ServiceAddr)
			if err != nil {
				return nil, err
			}
			code.Service = sink
			code.Close = sink.Close
		}
		return code, nil
	})

	distmr.RegisterKind(KindBFSConvert, func(params []byte) (*distmr.JobCode, error) {
		var p bfsConvertParams
		if err := decodeParams(params, &p); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return bfsConvertMapper{} },
			NewReducer: func() mapreduce.Reducer { return &bfsConvertReducer{source: p.Source} },
		}, nil
	})

	distmr.RegisterKind(KindBFSRound, func(params []byte) (*distmr.JobCode, error) {
		var p bfsRoundParams
		if err := decodeParams(params, &p); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return &bfsMapper{round: p.Round} },
			NewReducer: func() mapreduce.Reducer { return bfsReducer{} },
		}, nil
	})
}

// FF1AddArgs carries the FF1 sink reducer's round outcome — the accepted
// flow deltas and acceptance statistics — to the driver's collector.
type FF1AddArgs struct {
	Deltas map[graph.EdgeID]int64
	Stats  AugProcStats
}

// FF1AddReply is the empty acknowledgement.
type FF1AddReply struct{}

// ff1CollectorServer exposes the driver's per-round ff1Collector over
// TCP so FF1 sink reducers running on distributed workers can publish
// their acceptance outcome, the way FF2+ reducers reach aug_proc. One
// server lives for the whole run; the driver points it at each round's
// fresh collector.
type ff1CollectorServer struct {
	ln net.Listener

	mu  sync.Mutex
	col *ff1Collector
}

type ff1SinkService struct{ s *ff1CollectorServer }

// Add publishes a round outcome into the current collector. The
// collector's replace semantics make the call idempotent, so retried or
// speculated sink reducers cannot double-count.
func (svc *ff1SinkService) Add(args *FF1AddArgs, _ *FF1AddReply) error {
	svc.s.mu.Lock()
	col := svc.s.col
	svc.s.mu.Unlock()
	if col == nil {
		return fmt.Errorf("core: ff1 collector: no round is active")
	}
	return col.add(args.Deltas, args.Stats)
}

func newFF1CollectorServer() (*ff1CollectorServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: ff1 collector listen: %w", err)
	}
	s := &ff1CollectorServer{ln: ln}
	srv := rpc.NewServer()
	if err := srv.RegisterName("FF1Sink", &ff1SinkService{s: s}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("core: ff1 collector register: %w", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeCodec(rpcutil.NewServerCodec(conn))
		}
	}()
	return s, nil
}

func (s *ff1CollectorServer) Addr() string { return s.ln.Addr().String() }

func (s *ff1CollectorServer) setCollector(col *ff1Collector) {
	s.mu.Lock()
	s.col = col
	s.mu.Unlock()
}

func (s *ff1CollectorServer) Close() error { return s.ln.Close() }

// ff1RemoteSink is a worker's connection to the driver's collector
// server; it satisfies ff1Sink so the FF1 reducer code is backend
// agnostic.
type ff1RemoteSink struct{ c *rpc.Client }

func dialFF1Sink(addr string) (*ff1RemoteSink, error) {
	c, err := rpcutil.DialRPC(addr, rpcutil.Policy{})
	if err != nil {
		return nil, fmt.Errorf("core: ff1 collector dial: %w", err)
	}
	return &ff1RemoteSink{c: c}, nil
}

func (s *ff1RemoteSink) add(deltas map[graph.EdgeID]int64, st AugProcStats) error {
	return s.c.Call("FF1Sink.Add", &FF1AddArgs{Deltas: deltas, Stats: st}, &FF1AddReply{})
}

func (s *ff1RemoteSink) Close() error { return s.c.Close() }
