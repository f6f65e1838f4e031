package ffmr_test

import (
	"io"
	"log/slog"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// BenchmarkObsvOverhead measures the live observability stack's cost on
// one full FF5 computation (the FB3 chain member on a 3-worker
// distributed backend). "off" is the zero obsv.Options baseline; "logs"
// adds structured logging at the CLI's default info level on the
// driver, master, and every worker (to io.Discard, so the cost measured
// is instrumentation, not the terminal); "full" additionally arms the
// admin HTTP servers on master and workers, a live metrics registry
// with cross-process span stitching, and crash-dump directories (which
// cost nothing until a crash: there is no log tee, so records below
// the logger's level are never formatted). BENCH_obsv.json records the
// measured deltas; the full stack must stay within a few percent of off
// (the observability layer is sold as safe to leave on in production).
func BenchmarkObsvOverhead(b *testing.B) {
	sc := benchScale()
	sc.Chain = sc.Chain[:3] // through FB3
	chain, err := sc.BuildChain()
	if err != nil {
		b.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[2], sc.W, sc.MinDegree, sc.Seed+100)
	if err != nil {
		b.Fatal(err)
	}

	newCluster := func() *mapreduce.Cluster {
		fs := dfs.New(dfs.Config{Nodes: 4, BlockSize: 64 << 10, Replication: 2})
		c := mapreduce.NewCluster(4, 4, fs)
		c.Cost = mapreduce.ZeroCostModel()
		return c
	}
	run := func(b *testing.B, h *distmr.Harness, opts core.Options) {
		b.Helper()
		var flow, rounds int64
		for i := 0; i < b.N; i++ {
			cluster := newCluster()
			cluster.Distributed = h.Master
			res, err := core.Run(cluster, in, opts)
			if err != nil {
				b.Fatal(err)
			}
			flow, rounds = res.MaxFlow, int64(res.Rounds)
		}
		b.ReportMetric(float64(flow), "flow")
		b.ReportMetric(float64(rounds), "rounds")
	}

	b.Run("off", func(b *testing.B) {
		h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		run(b, h, core.Options{Variant: core.FF5})
	})

	b.Run("logs", func(b *testing.B) {
		logger := obsv.NewLogger(io.Discard, "text", slog.LevelInfo)
		h, err := distmr.StartHarness(distmr.HarnessConfig{
			Workers:    3,
			Master:     distmr.Config{Obsv: obsv.Options{Logger: logger}},
			WorkerObsv: obsv.Options{Logger: logger},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		run(b, h, core.Options{Variant: core.FF5, Log: logger})
	})

	b.Run("full", func(b *testing.B) {
		logger := obsv.NewLogger(io.Discard, "text", slog.LevelInfo)
		tr := trace.New()
		h, err := distmr.StartHarness(distmr.HarnessConfig{
			Workers: 3,
			Tracer:  tr,
			Master: distmr.Config{Obsv: obsv.Options{
				Logger: logger, AdminAddr: "127.0.0.1:0", FlightDir: b.TempDir(),
			}},
			WorkerObsv: obsv.Options{
				Logger: logger, AdminAddr: "127.0.0.1:0", FlightDir: b.TempDir(),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		run(b, h, core.Options{Variant: core.FF5, Log: logger, Tracer: tr})
	})
}

// BenchmarkTraceShipping isolates the cross-process tracing pipeline
// (DESIGN.md §9) from the rest of the observability stack: the same
// distributed FF5 run with no tracer anywhere ("off") versus a master
// tracer ("on") — which arms worker-side span recording, heartbeat
// span batches, counter/histogram snapshot diffs, clock-offset
// estimation and master-side stitching. The budget is <5% over "off";
// BENCH_obsv.json records the measurement. "on" also reports how many
// task-service samples were shipped per run, so the case provably
// exercised the pipeline rather than a no-op path.
func BenchmarkTraceShipping(b *testing.B) {
	sc := benchScale()
	sc.Chain = sc.Chain[:3]
	chain, err := sc.BuildChain()
	if err != nil {
		b.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[2], sc.W, sc.MinDegree, sc.Seed+100)
	if err != nil {
		b.Fatal(err)
	}

	// One harness + tracer per iteration, in both cases: a trace belongs
	// to one run in real use, and sharing a tracer across b.N runs makes
	// the live heap (and so GC scan work) grow with the iteration count —
	// measuring the benchmark's own accumulation, not the pipeline. The
	// harness setup cost is symmetric and inside the measured loop for
	// both cases, so the off/on ratio is still the shipping overhead.
	run := func(b *testing.B, traced bool) {
		b.Helper()
		var shipped int64
		for i := 0; i < b.N; i++ {
			var tr *trace.Tracer
			if traced {
				tr = trace.New()
			}
			h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3, Tracer: tr})
			if err != nil {
				b.Fatal(err)
			}
			fs := dfs.New(dfs.Config{Nodes: 4, BlockSize: 64 << 10, Replication: 2})
			cluster := mapreduce.NewCluster(4, 4, fs)
			cluster.Cost = mapreduce.ZeroCostModel()
			cluster.Distributed = h.Master
			cluster.Tracer = tr
			_, err = core.Run(cluster, in, core.Options{Variant: core.FF5, Tracer: tr})
			h.Close()
			if err != nil {
				b.Fatal(err)
			}
			if traced {
				shipped += tr.Registry().HistogramSnapshot()[distmr.HistTaskServiceNS].Count
			}
		}
		if traced {
			if shipped == 0 {
				b.Fatal("no task-service samples shipped: the traced case is not exercising the pipeline")
			}
			b.ReportMetric(float64(shipped)/float64(b.N), "tasks_shipped/op")
		}
	}

	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
