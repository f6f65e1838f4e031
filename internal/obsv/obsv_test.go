package obsv

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ffmr/internal/leakcheck"
	"ffmr/internal/trace"
)

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"spills":                     "ffmr_spills",
		"spilled bytes":              "ffmr_spilled_bytes",
		"distmr workers alive":       "ffmr_distmr_workers_alive",
		"MR jobs":                    "ffmr_mr_jobs",
		"weird--name  !! 9":          "ffmr_weird_name_9",
		"":                           "ffmr",
		"aug_proc queue depth (max)": "ffmr_aug_proc_queue_depth_max",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteParseMetricsRoundtrip(t *testing.T) {
	reg := trace.NewRegistry()
	reg.Counter("map tasks").Add(12)
	reg.Counter("reduce tasks").Add(4)
	reg.Counter("spilled bytes").Add(1 << 20)
	reg.Gauge("distmr workers alive").Set(3)
	reg.Gauge("distmr workers alive").Set(2)

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, reg); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	got, err := ParseMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	want := map[string]int64{
		"ffmr_map_tasks_total":          12,
		"ffmr_reduce_tasks_total":       4,
		"ffmr_spilled_bytes_total":      1 << 20,
		"ffmr_distmr_workers_alive":     2,
		"ffmr_distmr_workers_alive_max": 3,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d metrics, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

func TestWriteMetricsNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, nil); err != nil {
		t.Fatalf("WriteMetrics(nil): %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q, want empty", buf.String())
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	reg := trace.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("counter %d", i)).Add(int64(i))
	}
	var a, b bytes.Buffer
	if err := WriteMetrics(&a, reg); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&b, reg); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of an idle registry differ")
	}
}

func TestOrAndNop(t *testing.T) {
	if Or(nil) != Nop() {
		t.Fatal("Or(nil) did not return the shared nop logger")
	}
	l := NewLogger(io.Discard, "text", slog.LevelInfo)
	if Or(l) != l {
		t.Fatal("Or(l) did not return l")
	}
	// The nop logger must be safe and must report disabled.
	Nop().Info("dropped", "k", "v")
	if Nop().Enabled(nil, slog.LevelError) {
		t.Fatal("nop logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestAdminEndpoints(t *testing.T) {
	defer leakcheck.Check(t)()

	tr := trace.New()
	reg := tr.Registry()
	reg.Counter("map tasks").Add(7)
	tr.Event(nil, "round start", "round", 1)
	status := &ClusterStatus{
		Role: "master", WorkersAlive: 2,
		Workers: []WorkerStatus{{ID: 1, Addr: "w1", Running: 1}, {ID: 2, Addr: "w2"}},
		Job:     &JobStatus{Name: "ff5", Round: 3, Maps: 8, MapsDone: 5, Reduces: 4, InFlight: 3},
	}
	a, err := StartAdmin(AdminConfig{
		Tracer: func() *trace.Tracer { return tr },
		Status: func() *ClusterStatus { return status },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(a.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics = %d", code)
	}
	parsed, err := ParseMetrics(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics unparseable: %v\n%s", err, body)
	}
	if parsed["ffmr_map_tasks_total"] != 7 {
		t.Errorf("/metrics map tasks = %d, want 7", parsed["ffmr_map_tasks_total"])
	}
	// A counter bumped after the first scrape must show on the next one.
	reg.Counter("map tasks").Add(3)
	if _, body := get("/metrics"); !strings.Contains(body, "ffmr_map_tasks_total 10") {
		t.Errorf("second scrape did not see live counter:\n%s", body)
	}
	if code, body := get("/status"); code != http.StatusOK ||
		!strings.Contains(body, `"name": "ff5"`) || !strings.Contains(body, `"workers_alive": 2`) {
		t.Errorf("/status = %d %q", code, body)
	}
	if code, body := get("/flight"); code != http.StatusOK || !strings.Contains(body, "round start") {
		t.Errorf("/flight = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestAdminCloseIdempotentAndLeakFree(t *testing.T) {
	defer leakcheck.Check(t)()
	a, err := StartAdmin(AdminConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == "" {
		t.Fatal("admin has no address")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Close() // second close must not panic
	var nilAdmin *Admin
	if nilAdmin.Addr() != "" || nilAdmin.URL() != "" || nilAdmin.Close() != nil {
		t.Fatal("nil Admin not inert")
	}
}

// TestWriteMetricsWhileRegistryMutates scrapes the Prometheus rendering
// concurrently with counter and gauge writes — exactly what an admin
// /metrics poll does to a registry mid-job. Run under -race.
func TestWriteMetricsWhileRegistryMutates(t *testing.T) {
	reg := trace.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("writer %d ops", w))
			g := reg.Gauge("queue depth")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				g.Set(int64(i % 100))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WriteMetrics(&buf, reg); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ParseMetrics(&buf); err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
