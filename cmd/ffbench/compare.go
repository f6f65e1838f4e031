package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles holds result file b against result file a (the base):
// exact metrics must be equal, end-to-end metrics must not be worse
// than a by more than their BENCHMARK.json bound in their own
// direction, and a name missing from either file or unknown to the
// catalogue is an error. Per-layer timings are printed, not gated:
// they carry no bound. It returns the process exit code.
func compareFiles(aName, bName string, stdout, stderr io.Writer) int {
	problems, err := compareResults(aName, bName, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ffbench:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "FAIL", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ok: every exact metric equal, every bounded metric within its bound")
	return 0
}

func readResult(name string) (*resultFile, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if res.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", name, res.Schema, resultSchema)
	}
	return &res, nil
}

func compareResults(aName, bName string, stdout io.Writer) (problems []string, err error) {
	a, err := readResult(aName)
	if err != nil {
		return nil, err
	}
	b, err := readResult(bName)
	if err != nil {
		return nil, err
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, bm := range bf.EndToEnd {
		bounds[bm.Name] = bm.Bound
	}
	if len(a.Workloads) != len(b.Workloads) {
		return nil, fmt.Errorf("%d workloads against %d", len(a.Workloads), len(b.Workloads))
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (q1..q3)\tb (q1..q3)\tb/a\tverdict")
	for i := range a.Workloads {
		wa, wb := &a.Workloads[i], &b.Workloads[i]
		if wa.Name != wb.Name {
			return nil, fmt.Errorf("workload %d is %s against %s", i, wa.Name, wb.Name)
		}
		if wa.Failed+wb.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: failed solves (a %d, b %d)", wa.Name, wa.Failed, wb.Failed))
		}
		for _, section := range []struct {
			defs []metricDef
			a, b metrics
		}{{endToEnd, wa.EndToEnd, wb.EndToEnd}, {perLayer, wa.PerLayer, wb.PerLayer}} {
			if len(section.a) != len(section.defs) || len(section.b) != len(section.defs) {
				return nil, fmt.Errorf("%s: %d and %d metrics where the catalogue has %d (unknown or missing names)",
					wa.Name, len(section.a), len(section.b), len(section.defs))
			}
			for _, d := range section.defs {
				ma, okA := section.a[d.name]
				mb, okB := section.b[d.name]
				if !okA || !okB {
					return nil, fmt.Errorf("%s: metric %s missing", wa.Name, d.name)
				}
				verdict, ok := judge(d, ma.Value, mb.Value, bounds)
				if !ok {
					problems = append(problems, fmt.Sprintf("%s %s: %s", wa.Name, d.name, verdict))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wa.Name, d.name,
					cell(ma), cell(mb), ratio(ma.Value, mb.Value, ma.Unit), verdict)
			}
		}
	}
	return problems, tw.Flush()
}

// judge says whether b passes against base a for metric d, with the
// verdict to print: "ok", "-" (reported, not gated) or why it fails.
func judge(d metricDef, a, b float64, bounds map[string]float64) (verdict string, ok bool) {
	if d.exact {
		if a != b {
			return fmt.Sprintf("exact metric differs: %v against %v", b, a), false
		}
		return "ok", true
	}
	bound, bounded := bounds[d.name]
	if !bounded {
		return "-", true
	}
	worse := (b - a) / a
	if d.higher {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("worse by %.1f%% of %.6g %s, bound %.1f%%", 100*worse, a, d.unit, 100*bound), false
	}
	return "ok", true
}

func cell(m metric) string {
	if m.N > 1 {
		return fmt.Sprintf("%.6g (%.6g..%.6g)", m.Value, m.Q1, m.Q3)
	}
	return fmt.Sprintf("%.9g", m.Value)
}

// ratio prints b/a with its base, so no ratio stands alone.
func ratio(a, b float64, unit string) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fx of %.6g %s", b/a, a, unit)
}
