// Command ffmr-worker runs one distributed MapReduce worker: it
// registers with an ffmr master (started with -distributed
// -dist-listen), heartbeats, executes leased map and reduce tasks, and
// serves its map outputs to reducers on other workers. Linking
// internal/core registers every job kind the driver schedules, so this
// binary can run any FFMR or MR-BFS job.
//
// Example (three workers against a waiting master):
//
//	ffmr -distributed -dist-workers 0 -dist-listen 127.0.0.1:7350 -dist-wait 3 ... &
//	for i in 1 2 3; do ffmr-worker -master 127.0.0.1:7350 & done
//
// The worker exits when the master shuts down (signalled on a
// heartbeat), when its lease on life ends via injected WorkerCrashRate
// (exit status 3), or on SIGINT/SIGTERM.
package main

import (
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	_ "ffmr/internal/core" // registers the FFMR and MR-BFS job kinds
	"ffmr/internal/distmr"
	"ffmr/internal/obsv"
	"ffmr/internal/spill"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ffmr-worker: ")

	var (
		master    = flag.String("master", "", "master address to register with (required)")
		listen    = flag.String("listen", "", "address to serve tasks and segment fetches on (default: ephemeral loopback port)")
		dir       = flag.String("dir", "", "directory for map-output segments (default: hold segments in memory)")
		logFmt    = flag.String("log", "", "emit structured logs to stderr: text|json (default: off)")
		logLevel  = flag.String("log-level", "info", "log level for -log: debug|info|warn|error")
		admin     = flag.String("admin", "", "serve /metrics, /healthz, /status and /debug/pprof on this HTTP address")
		flightDir = flag.String("flight-dir", "", "arm the flight recorder; an injected crash dumps recent events here")
		drain     = flag.Bool("drain", false, "on SIGINT/SIGTERM, drain gracefully: finish running attempts, hand completed map outputs off through the master, then deregister and exit (a second signal forces immediate shutdown)")
		prefetch  = flag.Int("prefetch-depth", 0, "concurrent shuffle-segment fetches per reduce and background prefetch workers (default 4)")
	)
	flag.Parse()
	if *master == "" {
		log.Fatal("-master is required")
	}

	var logger *slog.Logger
	if *logFmt != "" {
		logger = obsv.NewLogger(os.Stderr, *logFmt, obsv.ParseLevel(*logLevel))
	}
	// The worker always owns a private tracer: task/spill/shuffle spans
	// ship to the master on heartbeats, and the -admin /metrics endpoint
	// (when enabled) scrapes the same registry.
	cfg := distmr.WorkerConfig{
		MasterAddr:    *master,
		ListenAddr:    *listen,
		PrefetchDepth: *prefetch,
		Obsv:          obsv.Options{Logger: logger, AdminAddr: *admin, FlightDir: *flightDir},
	}
	if *dir != "" {
		store, err := spill.NewDiskRunStore(*dir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = store
	}

	w, err := distmr.StartWorker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("worker %d serving on %s (master %s)", w.ID(), w.Addr(), *master)
	if a := w.AdminAddr(); a != "" {
		log.Printf("admin: http://%s/{metrics,healthz,status,debug/pprof}", a)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		if *drain {
			// Graceful retirement: the master stops leasing to this
			// worker, lets running attempts finish, pulls the winning map
			// outputs into DFS, and only then deregisters — at which point
			// the draining worker's next heartbeat ends it and Wait
			// returns. A second signal skips all that.
			log.Print("draining (send signal again to force shutdown)")
			w.Drain()
			<-sigs
		}
		w.Close()
	}()

	w.Wait()
	if w.Crashed() {
		log.Print("terminated by injected crash")
		os.Exit(3)
	}
	log.Print("shut down")
}
