package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ffmr/internal/stats"
	"ffmr/internal/trace"
)

// TestTable1MatchesTrace: running `-exp table1 -trace out.json` must
// emit a Chrome trace whose per-round A-Paths, MaxQ, Map Out and
// Shuffle(KB) values exactly match the rendered Table I. The table
// renders Result.RoundStats and the driver writes the same values onto
// each round span, so a disagreement means the two writes drifted.
func TestTable1MatchesTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1", "-trace", traceFile}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}

	tableRows := parseTable1(t, out.String())
	if len(tableRows) == 0 {
		t.Fatalf("no Table I rows parsed from output:\n%s", out.String())
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	events, err := trace.ParseChromeTrace(data)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}

	// Collect the round spans; -exp table1 runs exactly one FFMR job, so
	// every round event in the trace belongs to the rendered table.
	traceRows := map[int64][5]string{}
	for _, ev := range events {
		if ev.Cat != trace.CatRound {
			continue
		}
		round, ok := ev.Int(trace.AttrRound)
		if !ok {
			t.Fatalf("round span %q has no %s arg", ev.Name, trace.AttrRound)
		}
		get := func(key string) int64 {
			v, ok := ev.Int(key)
			if !ok {
				t.Fatalf("round %d span has no %s arg", round, key)
			}
			return v
		}
		traceRows[round] = [5]string{
			stats.FormatCount(get(trace.AttrAPaths)),
			stats.FormatCount(get(trace.AttrMaxQueue)),
			stats.FormatCount(get(trace.AttrMapOutRecords)),
			stats.FormatCount(get(trace.AttrShuffleBytes) / 1024),
			stats.FormatCount(get(trace.AttrActiveVertices)),
		}
	}
	if len(traceRows) != len(tableRows) {
		t.Fatalf("trace has %d round spans, Table I has %d rows", len(traceRows), len(tableRows))
	}
	for round, want := range tableRows {
		got, ok := traceRows[round]
		if !ok {
			t.Errorf("round %d in Table I but not in trace", round)
			continue
		}
		if got != want {
			t.Errorf("round %d mismatch:\n  table [A-Paths MaxQ MapOut ShuffleKB Active] = %v\n  trace                                       = %v",
				round, want, got)
		}
	}
}

// parseTable1 extracts the [A-Paths, MaxQ, Map Out, Shuffle(KB), Active]
// cells of each rendered Table I row, keyed by round number.
func parseTable1(t *testing.T, output string) map[int64][5]string {
	t.Helper()
	lines := strings.Split(output, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "Table I:") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("no Table I in output:\n%s", output)
	}
	header := lines[start+1]
	for _, col := range []string{"R", "A-Paths", "MaxQ", "Map Out", "Shuffle(KB)", "Active"} {
		if !strings.Contains(header, col) {
			t.Fatalf("Table I header missing column %q: %s", col, header)
		}
	}
	// Rows follow the dashed rule; columns are separated by 2+ spaces
	// (cells themselves never contain runs of spaces).
	sep := regexp.MustCompile(`\s{2,}`)
	rows := map[int64][5]string{}
	for _, l := range lines[start+3:] {
		if strings.TrimSpace(l) == "" {
			break
		}
		cells := sep.Split(strings.TrimSpace(l), -1)
		if len(cells) < 7 {
			t.Fatalf("short Table I row %q", l)
		}
		var round int64
		if _, err := fmt.Sscanf(cells[0], "%d", &round); err != nil {
			t.Fatalf("bad round cell %q in row %q", cells[0], l)
		}
		rows[round] = [5]string{cells[1], cells[2], cells[3], cells[4], cells[5]}
	}
	return rows
}
