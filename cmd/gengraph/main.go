// Command gengraph generates small-world graphs and writes them as text
// edge lists for the ffmr command (`ffmr -input`) or external tools. It
// is the graph-preparation step that precedes an FFMR job: the paper's
// crawl subsets and their super source/sink taps (§V-A1) are made here.
//
// Examples:
//
//	# A 100K-vertex scale-free graph with 8 super source/sink taps.
//	gengraph -gen ba -n 100000 -m 4 -w 8 -o fb.txt
//
//	# A 64x64 lattice, corner to corner, and a dense bipartite instance
//	# (-beta is its edge density).
//	gengraph -gen grid -n 64 -o grid.txt
//	gengraph -gen bip -n 500 -beta 0.3 -o bip.txt
//
//	# The nested FB1..FB6 chain (scaled), one file per member.
//	gengraph -chain tiny -o fb
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gengraph: ")

	var (
		gen    = flag.String("gen", "ba", "generator: ba|ws|rmat|er|grid|bip")
		n      = flag.Int("n", 10000, "vertices (ba, ws, er) / side length (grid) / per-side vertices (bip)")
		m      = flag.Int("m", 4, "attachment count (ba) / edge factor (rmat) / edges (er)")
		k      = flag.Int("k", 6, "ring neighbours (ws)")
		beta   = flag.Float64("beta", 0.1, "rewire probability (ws) / edge density (bip)")
		scale  = flag.Int("rmat-scale", 12, "log2 vertices (rmat)")
		seed   = flag.Int64("seed", 1, "generator seed")
		w      = flag.Int("w", 0, "attach super source/sink with w taps (not grid or bip)")
		minDeg = flag.Int("min-degree", 8, "tap eligibility threshold")
		maxCap = flag.Int64("max-cap", 0, "randomize capacities in [1, max-cap] (0 = unit; not grid or bip)")
		chain  = flag.String("chain", "", "generate the nested FB chain instead: tiny|default")
		attach = flag.Int("attach", 4, "chain master-graph attachment count")
		out    = flag.String("o", "", "output file (chain: prefix, one file per member); default stdout")
		show   = flag.Bool("stats", false, "print small-world metrics for the generated graph")
	)
	flag.Parse()

	if *chain != "" {
		if err := writeChain(*chain, *attach, *seed, *out); err != nil {
			log.Fatal(err)
		}
		return
	}

	in, err := generate(spec{
		gen: *gen, n: *n, m: *m, k: *k, beta: *beta, scale: *scale,
		seed: *seed, w: *w, minDeg: *minDeg, maxCap: *maxCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeGraph(in, *out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d vertices, %d edges (s=%d t=%d)\n",
		in.NumVertices, len(in.Edges), in.Source, in.Sink)
	if *show {
		m := graphgen.Measure(in, 16, *seed)
		fmt.Fprintf(os.Stderr,
			"avg degree %.1f, max degree %d, est. diameter %d, avg path %.2f, clustering %.3f, giant component %.1f%%\n",
			m.AverageDegree, m.MaxDegree, m.EstimatedDiameter,
			m.AveragePathLength, m.Clustering, 100*m.LargestComponent)
	}
}

// spec is one generated graph, as the flags describe it.
type spec struct {
	gen            string
	n, m, k, scale int
	beta           float64
	seed, maxCap   int64
	w, minDeg      int
}

// generate builds the graph s describes; an empty generator name is
// ba, as the -gen flag's default is. The small-world families (ba,
// ws, rmat, er) get random capacities when maxCap > 0, the two
// highest-degree vertices as endpoints, and w super source/sink taps
// when w > 0. Grid and bip set their own capacities and corner/super
// endpoints: rerouting them through PickEndpoints or tapping them with
// -w would collapse the diameter these families exist to provide, so
// -w and -max-cap are refused for them.
func generate(s spec) (*graph.Input, error) {
	if (s.gen == "grid" || s.gen == "bip") && (s.w > 0 || s.maxCap > 0) {
		return nil, fmt.Errorf("-w and -max-cap do not apply to %s: it sets its own endpoints and capacities", s.gen)
	}
	var in *graph.Input
	var err error
	switch s.gen {
	case "ba", "":
		in, err = graphgen.BarabasiAlbert(s.n, s.m, s.seed)
	case "ws":
		in, err = graphgen.WattsStrogatz(s.n, s.k, s.beta, s.seed)
	case "rmat":
		in, err = graphgen.RMAT(s.scale, s.m, s.seed)
	case "er":
		in, err = graphgen.ErdosRenyi(s.n, s.m, s.seed)
	case "grid":
		if in, err = graphgen.Grid(s.n, s.n); err != nil {
			return nil, err
		}
		graphgen.RandomCapacities(in, 16, s.seed)
		return in, nil
	case "bip":
		return graphgen.DenseBipartite(s.n, s.n, s.beta, s.seed)
	default:
		return nil, fmt.Errorf("unknown generator %q (want ba, ws, rmat, er, grid or bip)", s.gen)
	}
	if err != nil {
		return nil, err
	}
	if s.maxCap > 0 {
		graphgen.RandomCapacities(in, s.maxCap, s.seed+1)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	if s.w > 0 {
		return graphgen.AttachSuperSourceSink(in, s.w, s.minDeg, s.seed+100)
	}
	return in, nil
}

func writeChain(name string, attach int, seed int64, prefix string) error {
	var specs []graphgen.FBSpec
	switch name {
	case "tiny":
		specs = graphgen.TinyFBChain()
	case "default":
		specs = graphgen.DefaultFBChain()
	default:
		return fmt.Errorf("unknown chain %q (want tiny or default)", name)
	}
	chain, err := graphgen.CrawlChain(specs, attach, seed)
	if err != nil {
		return err
	}
	if prefix == "" {
		prefix = "fb"
	}
	for i, in := range chain {
		in.Source, in.Sink = graphgen.PickEndpoints(in)
		name := fmt.Sprintf("%s-%s.txt", prefix, specs[i].Name)
		if err := writeGraph(in, name); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges\n", name, in.NumVertices, len(in.Edges))
	}
	return nil
}

func writeGraph(in *graph.Input, out string) error {
	if out == "" {
		return graphgen.WriteEdgeList(os.Stdout, in)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := graphgen.WriteEdgeList(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
