package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file is the offline half of the observability story: given an
// exported Chrome trace (now containing both master spans and
// worker-shipped spans stitched under them), Analyze rebuilds the span
// DAG, walks the critical path of every round, attributes each round's
// wall time to map/reduce/shuffle/rpc/idle buckets, scores stragglers
// and lists the recorded events and crash dumps on one timeline.
// `ffmr -analyze <trace> [dumps...]` renders the result.

// Bucket names used by the round attribution.
const (
	BucketMap     = "map"
	BucketReduce  = "reduce"
	BucketShuffle = "shuffle"
	BucketRPC     = "rpc"
	BucketOther   = "other"
	BucketIdle    = "idle"
)

// aspan is one span rebuilt from a parsed trace export.
type aspan struct {
	id, parent int64
	name, cat  string
	start, end int64 // µs, trace timebase
	dur        int64
	pid        int64 // which merged file the span came from
	worker     bool  // recorded worker-side (shipped): has a "worker" arg
	args       map[string]any
	children   []*aspan
}

// PathStep is one hop of a round's critical path.
type PathStep struct {
	Cat, Name string
	DurUS     int64
	Worker    bool
}

// Straggler is one slow task attempt flagged by the per-round z-score
// scan.
type Straggler struct {
	Phase  string // map | reduce
	Name   string
	DurUS  int64
	MeanUS int64
	Z      float64
}

// RoundReport is the analysis of one round span.
type RoundReport struct {
	Round        int64
	Name         string
	WallUS       int64
	CriticalUS   int64
	CriticalPath []PathStep
	// BucketUS attributes the round's wall time: overlapping spans are
	// resolved by priority (reduce > map > shuffle > rpc > other) and
	// uncovered time is idle.
	BucketUS   map[string]int64
	Stragglers []Straggler
	TaskSpans  int
}

// Event is one CatEvent span: a scheduler decision or a crash.
type Event struct {
	TsUS int64 // trace timebase
	// Source is the worker that recorded the event ("worker-N") when its
	// parent span says so, else the process that wrote the file.
	Source string
	Msg    string
	Args   map[string]any
}

// Dump is one crash or live dump among the analyzed files.
type Dump struct {
	Source, Reason string
}

// Report is the whole trace's analysis.
type Report struct {
	Spans       int
	WorkerSpans int
	Rounds      []RoundReport
	// BucketUS sums the per-round attributions.
	BucketUS map[string]int64
	// Dumps lists the dump files merged in; Events lists every event
	// span in time order.
	Dumps  []Dump
	Events []Event
}

// Analyze rebuilds the span DAG from a parsed trace export and produces
// the per-round critical-path, attribution and straggler report. It
// needs the span ids exported in the "span" arg, so traces written by
// older builds analyze as empty.
func Analyze(events []ParsedEvent) (*Report, error) {
	rep := &Report{BucketUS: map[string]int64{}}
	byID := make(map[int64]*aspan)
	procs := make(map[int64]string)
	var spans, evs []*aspan
	for i := range events {
		e := &events[i]
		if e.Ph == "M" {
			name, _ := e.Args["name"].(string)
			procs[e.Pid] = name
			if reason, ok := e.Args[argReason].(string); ok {
				rep.Dumps = append(rep.Dumps, Dump{Source: name, Reason: reason})
			}
			continue
		}
		id, ok := e.Int("span")
		if !ok {
			continue // counter/gauge rows, or a pre-span-id trace
		}
		s := &aspan{
			id: id, name: e.Name, cat: e.Cat,
			start: e.Ts, end: e.Ts + e.Dur, dur: e.Dur,
			pid: e.Pid, args: e.Args,
		}
		s.parent, _ = e.Int("parent_span")
		_, s.worker = e.Int("worker")
		byID[s.id] = s
		spans = append(spans, s)
	}
	rep.Spans = len(spans)
	for _, s := range spans {
		if s.worker {
			rep.WorkerSpans++
		}
		if s.cat == CatEvent {
			// Events stay out of the DAG: a zero-length decision is
			// neither work to attribute nor a step of a critical path.
			evs = append(evs, s)
			continue
		}
		if p := byID[s.parent]; p != nil && p != s {
			p.children = append(p.children, s)
		}
	}
	for _, s := range evs {
		ev := Event{TsUS: s.start, Source: procs[s.pid], Msg: s.name, Args: s.args}
		if p := byID[s.parent]; p != nil {
			if w, ok := intArg(p.args, "worker"); ok {
				ev.Source = fmt.Sprintf("worker-%d", w)
			}
		}
		rep.Events = append(rep.Events, ev)
	}
	sort.SliceStable(rep.Events, func(i, j int) bool { return rep.Events[i].TsUS < rep.Events[j].TsUS })
	for _, s := range spans {
		sort.Slice(s.children, func(i, j int) bool { return s.children[i].start < s.children[j].start })
	}
	for _, s := range spans {
		if s.cat != CatRound {
			continue
		}
		rr := analyzeRound(s)
		rep.Rounds = append(rep.Rounds, rr)
		for k, v := range rr.BucketUS {
			rep.BucketUS[k] += v
		}
	}
	sort.Slice(rep.Rounds, func(i, j int) bool { return rep.Rounds[i].Round < rep.Rounds[j].Round })
	return rep, nil
}

func analyzeRound(round *aspan) RoundReport {
	rr := RoundReport{
		Name:     round.name,
		WallUS:   round.dur,
		BucketUS: map[string]int64{},
	}
	if v, ok := intArg(round.args, AttrRound); ok {
		rr.Round = v
	}

	// Critical path: from the round down, repeatedly step into the child
	// that finishes last — the span the parent was waiting on when it
	// ended. The path's length is the round's wall time; the steps show
	// which spans carried it.
	// seen (and walked, below) guard the walks against parent_span
	// cycles, which a corrupt or carelessly merged file can contain.
	seen := map[*aspan]bool{round: true}
	for s := round; ; {
		rr.CriticalPath = append(rr.CriticalPath, PathStep{Cat: s.cat, Name: s.name, DurUS: s.dur, Worker: s.worker})
		var next *aspan
		for _, c := range s.children {
			if !seen[c] && (next == nil || c.end > next.end) {
				next = c
			}
		}
		if next == nil {
			break
		}
		seen[next] = true
		s = next
	}
	rr.CriticalUS = round.dur

	// Attribution: classify every descendant span, then sweep the round
	// interval assigning each instant to the highest-priority bucket
	// covering it; uncovered time is idle.
	type interval struct {
		start, end int64
		prio       int
		bucket     string
	}
	var ivs []interval
	var mapDur, redDur []*aspan
	var walk func(s *aspan)
	walked := map[*aspan]bool{round: true}
	walk = func(s *aspan) {
		for _, c := range s.children {
			if walked[c] {
				continue
			}
			walked[c] = true
			if b, prio := classify(c); b != "" {
				st, en := clamp(c.start, round.start, round.end), clamp(c.end, round.start, round.end)
				if en > st {
					ivs = append(ivs, interval{st, en, prio, b})
				}
				if c.cat == CatTask {
					rr.TaskSpans++
					switch b {
					case BucketMap:
						mapDur = append(mapDur, c)
					case BucketReduce:
						redDur = append(redDur, c)
					}
				}
			}
			walk(c)
		}
	}
	walk(round)

	// Sweep: collect the boundary points, then attribute each elementary
	// segment to the best-priority interval covering it.
	points := make([]int64, 0, 2*len(ivs)+2)
	points = append(points, round.start, round.end)
	for _, iv := range ivs {
		points = append(points, iv.start, iv.end)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if b <= a {
			continue
		}
		best := ""
		bestPrio := -1
		for _, iv := range ivs {
			if iv.start <= a && iv.end >= b && iv.prio > bestPrio {
				best, bestPrio = iv.bucket, iv.prio
			}
		}
		if best == "" {
			best = BucketIdle
		}
		rr.BucketUS[best] += b - a
	}

	rr.Stragglers = append(rr.Stragglers, stragglers("map", mapDur)...)
	rr.Stragglers = append(rr.Stragglers, stragglers("reduce", redDur)...)
	return rr
}

// classify maps a span to its attribution bucket and priority. Nested
// spans overlap (a spill inside a map task, a shuffle fetch inside a
// reduce), so the sweep keeps the most specific work: reduce beats map
// beats shuffle beats rpc.
func classify(s *aspan) (string, int) {
	switch s.cat {
	case CatTask, CatPhase:
		n := strings.ToLower(s.name)
		if ph, ok := s.args["phase"].(string); ok {
			n = ph
		}
		switch {
		case strings.Contains(n, "reduce"):
			return BucketReduce, 4
		case strings.Contains(n, "map"):
			return BucketMap, 3
		}
		return BucketOther, 0
	case CatShuffle:
		return BucketShuffle, 2
	case CatRPC:
		return BucketRPC, 1
	case CatSpill:
		return BucketMap, 3
	case CatMerge:
		return BucketReduce, 4
	}
	return "", 0
}

// stragglers scores each task's duration against its phase's mean and
// standard deviation, flagging attempts more than two standard
// deviations slow (and always reporting at most the five worst).
func stragglers(phase string, tasks []*aspan) []Straggler {
	if len(tasks) < 3 {
		return nil
	}
	var sum, sum2 float64
	for _, t := range tasks {
		d := float64(t.dur)
		sum += d
		sum2 += d * d
	}
	n := float64(len(tasks))
	mean := sum / n
	std := math.Sqrt(math.Max(0, sum2/n-mean*mean))
	if std == 0 {
		return nil
	}
	var out []Straggler
	for _, t := range tasks {
		z := (float64(t.dur) - mean) / std
		if z > 2 {
			out = append(out, Straggler{
				Phase: phase, Name: t.name, DurUS: t.dur, MeanUS: int64(mean), Z: z,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Z > out[j].Z })
	if len(out) > 5 {
		out = out[:5]
	}
	return out
}

// Format renders the report as the ASCII table `ffmr -analyze` prints.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "trace analysis: %d spans (%d worker-side), %d rounds\n",
		r.Spans, r.WorkerSpans, len(r.Rounds))
	defer r.formatEvents(w)
	if len(r.Rounds) == 0 {
		fmt.Fprintln(w, "no round spans found (trace too old, or run had no rounds)")
		return
	}
	for i := range r.Rounds {
		rr := &r.Rounds[i]
		fmt.Fprintf(w, "\nround %d (%s): wall %s, critical path %s, %d task spans\n",
			rr.Round, rr.Name, usStr(rr.WallUS), usStr(rr.CriticalUS), rr.TaskSpans)
		steps := make([]string, 0, len(rr.CriticalPath))
		for _, st := range rr.CriticalPath {
			side := ""
			if st.Worker {
				side = "@worker"
			}
			steps = append(steps, fmt.Sprintf("%s:%s%s %s", st.Cat, st.Name, side, usStr(st.DurUS)))
		}
		fmt.Fprintf(w, "  path: %s\n", strings.Join(steps, " -> "))
		fmt.Fprintf(w, "  attribution:")
		for _, b := range []string{BucketMap, BucketShuffle, BucketReduce, BucketRPC, BucketOther, BucketIdle} {
			v := rr.BucketUS[b]
			if v == 0 && b != BucketIdle {
				continue
			}
			pct := 0.0
			if rr.WallUS > 0 {
				pct = 100 * float64(v) / float64(rr.WallUS)
			}
			fmt.Fprintf(w, " %s %.1f%% (%s)", b, pct, usStr(v))
		}
		fmt.Fprintln(w)
		for _, s := range rr.Stragglers {
			fmt.Fprintf(w, "  straggler: %s %s z=%.1f (%s vs mean %s)\n",
				s.Phase, s.Name, s.Z, usStr(s.DurUS), usStr(s.MeanUS))
		}
	}
	// The idle fraction here is the exact offline counterpart of the
	// /status scaling hint: time inside rounds no categorized span
	// covers.
	var total, idle int64
	for i := range r.Rounds {
		total += r.Rounds[i].WallUS
		idle += r.Rounds[i].BucketUS[BucketIdle]
	}
	if total > 0 {
		fmt.Fprintf(w, "\noverall: %s in rounds, idle fraction %.1f%%\n",
			usStr(total), 100*float64(idle)/float64(total))
	}
}

// formatEvents prints the dumps and the event timeline, each event as
// its time, source, message and sorted args.
func (r *Report) formatEvents(w io.Writer) {
	if len(r.Dumps) > 0 {
		fmt.Fprintln(w)
	}
	for _, d := range r.Dumps {
		fmt.Fprintf(w, "dump: %s reason=%s\n", d.Source, d.Reason)
	}
	if len(r.Events) == 0 {
		return
	}
	fmt.Fprintf(w, "\nevents (%d):\n", len(r.Events))
	for _, e := range r.Events {
		keys := make([]string, 0, len(e.Args))
		for k := range e.Args {
			if k != "span" && k != "parent_span" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  %10s %-10s %s", usStr(e.TsUS), e.Source, e.Msg)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%v", k, e.Args[k])
		}
		fmt.Fprintln(w)
	}
}

func usStr(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dus", us)
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func intArg(args map[string]any, key string) (int64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}
