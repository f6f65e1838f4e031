// Command experiments regenerates the paper's evaluation: the graph
// table, Fig. 5 through Fig. 8, Table I, and the design-choice ablations,
// printing each in a form directly comparable to the published results.
//
// Examples:
//
//	experiments -exp all -scale tiny
//	experiments -exp fig6 -scale default
//	experiments -exp table1 -w 32
//	experiments -exp table1 -trace table1.json   # Chrome trace of the runs
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ffmr/internal/distmr"
	"ffmr/internal/experiments"
	"ffmr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command: it parses args, executes the
// selected experiments and writes all human-readable output to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: graphs|fig5|fig6|table1|fig7|fig8|ablation|mrbsp|warmcold|portfolio|all")
		scale    = fs.String("scale", "tiny", "scale: tiny (10000x down) or default (1000x down)")
		w        = fs.Int("w", 0, "override super source/sink tap count")
		seed     = fs.Int64("seed", 0, "override generation seed")
		nodes    = fs.Int("nodes", 0, "override cluster node count")
		csv      = fs.String("csv", "", "also write each artifact as CSV into this directory")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON file covering every run")
		budget   = fs.Int64("memory-budget", 0, "per-map-task shuffle buffer bytes; >0 spills sorted runs to disk (0 = unbounded)")
		spillTo  = fs.String("spill-dir", "", "directory for spill segments (default: system temp dir)")
		dist     = fs.Bool("distributed", false, "run every job on an in-process distributed master/worker cluster")
		distWork = fs.Int("dist-workers", 3, "workers in the distributed cluster (with -distributed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	saveCSV := func(name string, c interface{ CSV(io.Writer) error }) error {
		if *csv == "" {
			return nil
		}
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csv, name+".csv"))
		if err != nil {
			return err
		}
		if err := c.CSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	var sc experiments.Scale
	switch *scale {
	case "tiny":
		sc = experiments.Tiny()
	case "default":
		sc = experiments.Default()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *w > 0 {
		sc.W = *w
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	sc.MemoryBudget = *budget
	sc.SpillDir = *spillTo
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
		sc.Tracer = tracer
	}
	if *traceOut != "" {
		// Deferred immediately so the trace survives a failed or
		// interrupted experiment — exactly when it matters most.
		defer func() {
			if err := writeTrace(tracer, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: write trace: %v\n", err)
				return
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
		}()
	}
	if *dist {
		h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: *distWork, Tracer: tracer})
		if err != nil {
			return err
		}
		defer h.Close()
		sc.Distributed = h.Master
		fmt.Fprintf(stdout, "distributed: %d workers registered with master %s\n\n",
			h.Master.LiveWorkers(), h.Master.Addr())
	}
	run := func(name string, f func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		fmt.Fprintf(stdout, "==== %s ====\n\n", strings.ToUpper(name))
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	steps := []struct {
		name string
		f    func() error
	}{
		{"graphs", func() error {
			_, tbl, err := experiments.GraphsTable(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("graphs", tbl)
		}},
		{"fig5", func() error {
			_, fig, err := experiments.Fig5(sc, []int{1, 2, 4, 8, 16, 32})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, fig)
			return saveCSV("fig5", fig)
		}},
		{"fig6", func() error {
			_, tbl, err := experiments.Fig6(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("fig6", tbl)
		}},
		{"table1", func() error {
			_, tbl, err := experiments.Table1(sc, sc.W)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("table1", tbl)
		}},
		{"fig7", func() error {
			_, fig, err := experiments.Fig7(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, fig)
			return saveCSV("fig7", fig)
		}},
		{"fig8", func() error {
			_, fig, err := experiments.Fig8(sc, []int{5, 10, 20})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, fig)
			return saveCSV("fig8", fig)
		}},
		{"ablation", func() error {
			_, tbl, err := experiments.AblationTechniques(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			_, tbl2, err := experiments.AblationK(sc, []int{1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl2)
			_, tbl3, err := experiments.AblationCombiner(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl3)
			if err := saveCSV("ablation-techniques", tbl); err != nil {
				return err
			}
			if err := saveCSV("ablation-k", tbl2); err != nil {
				return err
			}
			return saveCSV("ablation-combiner", tbl3)
		}},
		{"mrbsp", func() error {
			_, tbl, err := experiments.CompareMRBSP(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("mrbsp", tbl)
		}},
		{"warmcold", func() error {
			_, tbl, err := experiments.WarmVsCold(sc, []int{5, 20, 80}, 2)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("warmcold", tbl)
		}},
		{"portfolio", func() error {
			_, tbl, err := experiments.Portfolio(sc)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, tbl)
			return saveCSV("portfolio", tbl)
		}},
	}
	if *exp != "all" {
		known := false
		for _, s := range steps {
			known = known || s.name == *exp
		}
		if !known {
			return fmt.Errorf("unknown experiment %q (want graphs, fig5, fig6, table1, fig7, fig8, ablation, mrbsp, warmcold, portfolio or all)", *exp)
		}
	}
	for _, s := range steps {
		if err := run(s.name, s.f); err != nil {
			return err
		}
	}

	return nil
}

// writeTrace flushes the tracer's Chrome trace to path.
func writeTrace(tracer *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
