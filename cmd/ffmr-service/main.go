// Command ffmr-service runs the resident multi-tenant flow service: one
// long-lived process owning a cluster (simulated engine or a distmr
// master with in-process TCP workers), a fair-share scheduler
// multiplexing client jobs over it, and a query API serving flow-value,
// min-cut and residual-capacity reads from resident generation-tagged
// snapshots.
//
// Examples:
//
//	# Simulated engine, 2 concurrent jobs, API on an ephemeral port.
//	ffmr-service -listen 127.0.0.1:7400 -admin 127.0.0.1:7401
//
//	# Distributed backend with 3 in-process workers.
//	ffmr-service -workers 3 -listen 127.0.0.1:7400
//
//	# Submit work from another terminal.
//	gengraph -gen ba -n 20000 -w 16 -o social.txt
//	ffmr -submit 127.0.0.1:7400 -tenant acme -handle social -input social.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/service"
	"ffmr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ffmr-service: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "client API listen address")
		admin    = flag.String("admin", "", "admin HTTP address (/metrics, /status, /healthz, pprof)")
		workers  = flag.Int("workers", 0, "in-process distributed workers (0 = simulated engine)")
		nodes    = flag.Int("nodes", 4, "simulated cluster nodes")
		slots    = flag.Int("slots", 4, "worker slots per node")
		conc     = flag.Int("concurrency", 2, "jobs run concurrently against the shared pool")
		tQueue   = flag.Int("tenant-queue", 64, "per-tenant queued-job quota")
		tRun     = flag.Int("tenant-running", 0, "per-tenant running-job cap (0 = up to -concurrency)")
		variant  = flag.Int("variant", 5, "default algorithm variant 1..5 (FF1..FF5)")
		kPaths   = flag.Int("excess-paths", 4, "per-vertex excess path limit (FF1..FF4)")
		real     = flag.Bool("realistic", false, "charge Hadoop-like per-round overhead in simulated time")
		logFmt   = flag.String("log", "text", "structured logs to stderr: text|json|off")
		logLevel = flag.String("log-level", "info", "log level: debug|info|warn|error")
		trOut    = flag.String("trace", "", "write a Chrome trace_event JSON file of the service's lifetime on shutdown")
	)
	flag.Parse()

	var logger *slog.Logger
	if *logFmt != "" && *logFmt != "off" {
		logger = obsv.NewLogger(os.Stderr, *logFmt, obsv.ParseLevel(*logLevel))
	}
	tracer := trace.New()
	if *trOut != "" {
		// Deferred immediately so the trace survives startup failures and
		// drain errors, not just clean shutdowns.
		defer func() {
			f, err := os.Create(*trOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ffmr-service: write trace: %v\n", err)
				return
			}
			if err := tracer.WriteChromeTrace(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "ffmr-service: write trace: %v\n", err)
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ffmr-service: write trace: %v\n", err)
				return
			}
			fmt.Printf("trace written to %s\n", *trOut)
		}()
	}

	fs := dfs.New(dfs.Config{Nodes: *nodes, BlockSize: 4 << 20, Replication: 2})
	cluster := mapreduce.NewCluster(*nodes, *slots, fs)
	if *real {
		cluster.Cost = mapreduce.DefaultCostModel()
	} else {
		cluster.Cost = mapreduce.ZeroCostModel()
	}

	var masterStatus func() *obsv.ClusterStatus
	if *workers > 0 {
		h, err := distmr.StartHarness(distmr.HarnessConfig{
			Workers: *workers,
			Tracer:  tracer,
			Master:  distmr.Config{Obsv: obsv.Options{Logger: logger}},
		})
		if err != nil {
			return err
		}
		defer h.Close()
		cluster.Distributed = h.Master
		masterStatus = h.Master.Status
		fmt.Printf("distributed: %d workers registered with master %s\n",
			h.Master.LiveWorkers(), h.Master.Addr())
	}

	svc, err := service.Start(service.Config{
		Cluster: cluster,
		Quotas: service.Quotas{
			MaxConcurrent:       *conc,
			MaxQueuedPerTenant:  *tQueue,
			MaxRunningPerTenant: *tRun,
		},
		Addr:      *listen,
		AdminAddr: *admin,
		DefaultOpts: core.Options{
			Variant: core.Variant(*variant),
			K:       *kPaths,
		},
		MasterStatus: masterStatus,
		Tracer:       tracer,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	fmt.Printf("service: API on http://%s/v1\n", svc.Addr())
	if a := svc.AdminAddr(); a != "" {
		fmt.Printf("admin: http://%s/{metrics,healthz,status,debug/pprof}\n", a)
	}

	// Block until asked to stop, then drain: admission closes, queued
	// jobs fail fast, running jobs complete, listeners shut down.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Printf("service: %v — draining\n", sig)
	return svc.Close()
}
