package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"ffmr/internal/distmr"
	"ffmr/internal/graphgen"
	"ffmr/internal/leakcheck"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// TestDistributedMetricsEndpointParity is the tentpole acceptance test
// for the live observability layer: a full FF5 run on the distributed
// backend with the master's admin server enabled, then a real HTTP
// scrape of /metrics whose end-of-run totals must equal the
// trace.Registry the run published into — every counter, exactly.
// /healthz and /status are exercised on the same live master.
func TestDistributedMetricsEndpointParity(t *testing.T) {
	defer leakcheck.Check(t)()

	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 42)

	tr := trace.New()
	// The harness is closed by an explicit defer (not t.Cleanup) so it
	// runs before the leak check above it.
	h, err := distmr.StartHarness(distmr.HarnessConfig{
		Workers: 3,
		Tracer:  tr,
		Master:  distmr.Config{Obsv: obsv.Options{AdminAddr: "127.0.0.1:0"}},
	})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()
	addr := h.Master.AdminAddr()
	if addr == "" {
		t.Fatal("master has no admin address despite AdminAddr being set")
	}
	defer http.DefaultClient.CloseIdleConnections()

	distC := testCluster(3)
	distC.Distributed = h.Master
	res, err := Run(distC, in, Options{Variant: FF5, Tracer: tr})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if res.MaxFlow <= 0 {
		t.Fatalf("max flow = %d, want > 0 (the run must do real work)", res.MaxFlow)
	}

	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Fatalf("GET /healthz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz = %d, want 200", resp.StatusCode)
		}
	}

	// A short run can outpace the 100ms heartbeat cadence, so poll until
	// the piggybacked task counts have reached the master.
	var st obsv.ClusterStatus
	var tasksDone int64
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/status")
		if err != nil {
			t.Fatalf("GET /status: %v", err)
		}
		st = obsv.ClusterStatus{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/status unparseable: %v", err)
		}
		tasksDone = 0
		for _, w := range st.Workers {
			tasksDone += w.TasksDone
		}
		if tasksDone > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Role != "master" || st.WorkersAlive != 3 || len(st.Workers) != 3 {
		t.Errorf("/status = role %q, %d alive, %d workers; want master/3/3",
			st.Role, st.WorkersAlive, len(st.Workers))
	}
	if tasksDone == 0 {
		t.Error("/status reports zero heartbeat-piggybacked tasks done after a full run")
	}

	// The parity assertion: /metrics is scraped over real HTTP until two
	// consecutive scrapes agree (worker telemetry — counters, histograms,
	// span batches — keeps landing on heartbeats for a short tail after
	// the run returns), then the registry is snapshotted; the Prometheus
	// totals must match the snapshot for every counter and every
	// histogram's _count/_sum.
	scrape := func() map[string]int64 {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		parsed, err := obsv.ParseMetrics(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/metrics unparseable: %v", err)
		}
		return parsed
	}
	// The heartbeat-RTT histogram gains a sample on every beat forever,
	// so it can never quiesce; it is excluded from the equality loop and
	// checked with bounds below.
	rttPrefix := obsv.MetricName(distmr.HistHeartbeatRTTNS)
	settled := func(a, b map[string]int64) bool {
		for k, v := range b {
			if strings.HasPrefix(k, rttPrefix) {
				continue
			}
			if av, ok := a[k]; !ok || av != v {
				return false
			}
		}
		return len(a) >= len(b)
	}
	parsed := scrape()
	for quiet := time.Now().Add(5 * time.Second); time.Now().Before(quiet); {
		time.Sleep(150 * time.Millisecond) // > the heartbeat cadence
		next := scrape()
		done := settled(parsed, next) && settled(next, parsed)
		parsed = next
		if done {
			break
		}
	}

	snap := tr.Registry().CounterSnapshot()
	if len(snap) == 0 {
		t.Fatal("registry holds no counters after a distributed run")
	}
	for name, want := range snap {
		key := obsv.MetricName(name) + "_total"
		if got, ok := parsed[key]; !ok {
			t.Errorf("counter %q (%s) missing from /metrics", name, key)
		} else if got != want {
			t.Errorf("%s = %d, registry says %d", key, got, want)
		}
	}

	// Histogram parity: every registry histogram's _count and _sum must
	// appear in the exposition with the exact registry values. The
	// worker-side service-time histogram must be populated — that is the
	// span/telemetry shipping path working over the real wire.
	hists := tr.Registry().HistogramSnapshot()
	if hv, ok := hists[distmr.HistTaskServiceNS]; !ok || hv.Count == 0 {
		t.Errorf("histogram %q not shipped from workers (count %d)",
			distmr.HistTaskServiceNS, hv.Count)
	}
	for name, hv := range hists {
		mn := obsv.MetricName(name)
		if name == distmr.HistHeartbeatRTTNS {
			// Still advancing with every beat: the scrape preceded the
			// snapshot, so scraped ≤ registry, and both must be populated.
			if got := parsed[mn+"_count"]; got == 0 || got > hv.Count {
				t.Errorf("%s_count = %d, want in (0, %d]", mn, got, hv.Count)
			}
			continue
		}
		if got, ok := parsed[mn+"_count"]; !ok || got != hv.Count {
			t.Errorf("%s_count = %d (present %v), registry says %d", mn, got, ok, hv.Count)
		}
		if got, ok := parsed[mn+"_sum"]; !ok || got != hv.Sum {
			t.Errorf("%s_sum = %d (present %v), registry says %d", mn, got, ok, hv.Sum)
		}
	}

	// Spot-check the live driver metrics the run loop publishes.
	if got := parsed[obsv.MetricName(trace.CounterFFRounds)+"_total"]; got != int64(res.Rounds) {
		t.Errorf("ffmr rounds counter = %d, want %d", got, res.Rounds)
	}
	if got := parsed[obsv.MetricName(trace.GaugeFFMaxFlow)]; got != res.MaxFlow {
		t.Errorf("max-flow gauge = %d, want %d", got, res.MaxFlow)
	}
}

// TestFaultFreeDistributedRunRecordsNoEvents: decisions are events, and
// a fault-free FF5 run on the distributed backend makes none — routine
// progress stays slog-only, so a clean run's trace carries exactly the
// spans it did before events existed.
func TestFaultFreeDistributedRunRecordsNoEvents(t *testing.T) {
	defer leakcheck.Check(t)()

	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 42)

	tr := trace.New()
	h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3, Tracer: tr})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()
	distC := testCluster(3)
	distC.Distributed = h.Master
	if _, err := Run(distC, in, Options{Variant: FF5, Tracer: tr}); err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Cat == trace.CatEvent {
			t.Errorf("fault-free run recorded event %q %v", e.Name, e.Args)
		}
	}
}

// TestRoundDoneLogMatchesRoundStats: the "round done" log event is the
// live per-round view of a run, so each one carries its round's Table I
// columns exactly as Result.RoundStats records them.
func TestRoundDoneLogMatchesRoundStats(t *testing.T) {
	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	var buf bytes.Buffer
	res, err := Run(testCluster(3), in, Options{Variant: FF5, Log: obsv.NewLogger(&buf, "json", slog.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Msg           string `json:"msg"`
			Round         int    `json:"round"`
			APaths        int64  `json:"a_paths"`
			Active        int64  `json:"active"`
			MapOutRecords int64  `json:"map_out_records"`
			ShuffleBytes  int64  `json:"shuffle_bytes"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if ev.Msg != "round done" {
			continue
		}
		logged++
		rs := res.RoundStats[ev.Round]
		if ev.APaths != rs.APaths || ev.Active != rs.ActiveVertices ||
			ev.MapOutRecords != rs.MapOutRecords || ev.ShuffleBytes != rs.ShuffleBytes {
			t.Errorf("round %d logged %+v, RoundStats %+v", ev.Round, ev, rs)
		}
	}
	if logged != res.Rounds || logged == 0 {
		t.Errorf("%d round done events for %d rounds", logged, res.Rounds)
	}
}
