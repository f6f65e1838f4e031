package mapreduce

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// spillTestJob is a shuffle-heavy job: each input record fans out to
// several intermediate records so small memory budgets force multiple
// spills per map task.
func spillTestJob(inputs []string) *Job {
	return &Job{
		Name:         "spilltest",
		Inputs:       inputs,
		OutputPrefix: "sp-out/",
		NumReducers:  3,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				for _, w := range strings.Fields(string(value)) {
					ctx.Emit([]byte(w), []byte(fmt.Sprintf("%s@%s", key, w)))
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				n := 0
				for values.Next() != nil {
					n++
				}
				ctx.Emit(key, []byte(strconv.Itoa(n)))
				ctx.Inc("groups", 1)
				return nil
			})
		},
	}
}

// writeSpillInput generates enough skewed text records for multi-spill
// runs at small budgets.
func writeSpillInput(t *testing.T, c *Cluster, name string, n int) {
	t.Helper()
	var kvs [][2]string
	for i := 0; i < n; i++ {
		kvs = append(kvs, [2]string{
			fmt.Sprintf("k%04d", i),
			fmt.Sprintf("alpha bravo-%d charlie delta-%d echo foxtrot-%d", i%7, i%13, i%29),
		})
	}
	writeRecords(t, c, name, kvs)
}

// comparableStats extracts the Result fields that must be identical
// between the in-memory and out-of-core shuffle paths.
func comparableStats(res *Result) map[string]int64 {
	return map[string]int64{
		"map_tasks":        int64(res.MapTasks),
		"reduce_tasks":     int64(res.ReduceTasks),
		"map_in_recs":      res.MapInputRecords,
		"map_out_recs":     res.MapOutputRecords,
		"map_out_bytes":    res.MapOutputBytes,
		"shuffle_bytes":    res.ShuffleBytes,
		"inter_node_bytes": res.InterNodeShuffleBytes,
		"max_record_bytes": res.MaxRecordBytes,
		"max_group_bytes":  res.MaxGroupBytes,
		"reduce_out_recs":  res.ReduceOutputRecords,
		"output_bytes":     res.OutputBytes,
		"input_bytes":      res.InputBytes,
	}
}

func TestSpillPathMatchesInMemory(t *testing.T) {
	// The subtest keeps the name of the uncompressed cell this test once
	// shared with a compressed one.
	t.Run("raw", func(t *testing.T) {
		run := func(budget int64) (*Result, []string) {
			c := newTestCluster(3, 2, 512)
			c.MemoryBudget = budget
			c.SpillDir = t.TempDir()
			c.MergeFanIn = 2
			writeSpillInput(t, c, "in/0", 120)
			res, err := c.Run(spillTestJob([]string{"in/0"}))
			if err != nil {
				t.Fatal(err)
			}
			return res, readAll(t, c, "sp-out/")
		}

		memRes, memOut := run(0)
		spRes, spOut := run(1024)
		if !reflect.DeepEqual(memOut, spOut) {
			t.Fatalf("outputs diverge: mem %d records, spill %d records", len(memOut), len(spOut))
		}
		if mem, sp := comparableStats(memRes), comparableStats(spRes); !reflect.DeepEqual(mem, sp) {
			t.Fatalf("stats diverge:\n mem   %v\n spill %v", mem, sp)
		}
		if memRes.Counter("groups") != spRes.Counter("groups") {
			t.Fatalf("groups counter diverges: %d vs %d",
				memRes.Counter("groups"), spRes.Counter("groups"))
		}
		if memRes.Spills != 0 || memRes.MergePasses != 0 {
			t.Fatalf("in-memory path reported spill work: %d spills, %d merge passes",
				memRes.Spills, memRes.MergePasses)
		}
		if spRes.Spills < 2*int64(spRes.MapTasks) {
			t.Errorf("spills = %d over %d map tasks, want >= 2 per task",
				spRes.Spills, spRes.MapTasks)
		}
		if spRes.SpilledBytes != spRes.MapOutputBytes {
			t.Errorf("spilled bytes = %d, map output bytes = %d (no combiner: must match)",
				spRes.SpilledBytes, spRes.MapOutputBytes)
		}
		if spRes.MergePasses < 2 {
			t.Errorf("merge passes = %d, want >= 2", spRes.MergePasses)
		}
		if spRes.MaxMergeFanIn > 2 {
			t.Errorf("max merge fan-in = %d, want <= configured 2", spRes.MaxMergeFanIn)
		}
	})
}

func TestSpillWithCombinerMatchesInMemory(t *testing.T) {
	// A sum combiner is associative, so per-spill combining (spill path)
	// and whole-task combining (in-memory path) must yield identical
	// reduce output even though intermediate record counts legitimately
	// differ (Hadoop combines per spill too).
	sum := func() Combiner {
		return CombinerFunc(func(key []byte, values [][]byte) ([][]byte, error) {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return nil, err
				}
				total += n
			}
			return [][]byte{[]byte(strconv.Itoa(total))}, nil
		})
	}
	run := func(budget int64) []string {
		c := newTestCluster(3, 2, 256)
		c.MemoryBudget = budget
		c.SpillDir = t.TempDir()
		c.MergeFanIn = 2
		var kvs [][2]string
		for i := 0; i < 150; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%04d", i), fmt.Sprintf("w%d w%d w%d", i%5, i%3, i%5)})
		}
		writeRecords(t, c, "in/0", kvs)
		job := wordCountJob(c, []string{"in/0"})
		job.NewReducer = func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				total := 0
				for v := values.Next(); v != nil; v = values.Next() {
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					total += n
				}
				ctx.Emit(key, []byte(strconv.Itoa(total)))
				return nil
			})
		}
		job.NewCombiner = sum
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		return readAll(t, c, "wc-out/")
	}
	memOut := run(0)
	spOut := run(512)
	if !reflect.DeepEqual(memOut, spOut) {
		t.Fatalf("combiner outputs diverge:\n mem   %v\n spill %v", memOut, spOut)
	}
}

func TestSpillDiskFaultRetry(t *testing.T) {
	run := func(diskRate float64) (*Result, []string, string) {
		c := newTestCluster(3, 2, 512)
		c.MemoryBudget = 1024
		c.SpillDir = t.TempDir()
		c.MergeFanIn = 2
		c.Fault = Faults{MaxAttempts: 6, DiskFailureRate: diskRate, Seed: 42}
		writeSpillInput(t, c, "in/0", 120)
		res, err := c.Run(spillTestJob([]string{"in/0"}))
		if err != nil {
			t.Fatal(err)
		}
		return res, readAll(t, c, "sp-out/"), c.SpillDir
	}

	cleanRes, cleanOut, _ := run(0)
	faultRes, faultOut, spillDir := run(0.15)

	if !reflect.DeepEqual(cleanOut, faultOut) {
		t.Fatal("output diverges under injected disk failures")
	}
	if !reflect.DeepEqual(comparableStats(cleanRes), comparableStats(faultRes)) {
		t.Fatalf("stats diverge under injected disk failures:\n clean %v\n fault %v",
			comparableStats(cleanRes), comparableStats(faultRes))
	}
	if faultRes.Counter("task failures") == 0 {
		t.Error("no task failures recorded despite injected disk failure rate")
	}
	// The per-job run store is removed when the job finishes, so the
	// spill dir must hold no orphan state from failed attempts.
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill dir holds %d orphan entries after job completion", len(entries))
	}
}

func TestSpillMetricsReachTracer(t *testing.T) {
	tr := trace.New()
	c := newTestCluster(3, 2, 512)
	c.Tracer = tr
	c.MemoryBudget = 1024
	c.SpillDir = t.TempDir()
	c.MergeFanIn = 2
	writeSpillInput(t, c, "in/0", 120)
	res, err := c.Run(spillTestJob([]string{"in/0"}))
	if err != nil {
		t.Fatal(err)
	}
	reg := tr.Registry()
	if got := reg.Counter(trace.CounterSpills).Value(); got != res.Spills {
		t.Errorf("registry spills = %d, result = %d", got, res.Spills)
	}
	if got := reg.Counter(trace.CounterSpilledBytes).Value(); got != res.SpilledBytes {
		t.Errorf("registry spilled bytes = %d, result = %d", got, res.SpilledBytes)
	}
	if got := reg.Counter(trace.CounterMergePasses).Value(); got != res.MergePasses {
		t.Errorf("registry merge passes = %d, result = %d", got, res.MergePasses)
	}
	// One object per spill, one more per merge pass that is not a reduce
	// task's final one; the fan-in of 2 forces some.
	if got := reg.Counter(trace.CounterSpillObjects).Value(); got != res.SpillObjects || got <= res.Spills || got >= res.Spills+res.MergePasses {
		t.Errorf("registry spill store objects = %d, result = %d, for %d spills and %d merge passes",
			got, res.SpillObjects, res.Spills, res.MergePasses)
	}
	if got := reg.Gauge(trace.GaugeMergeFanIn).Max(); got != res.MaxMergeFanIn {
		t.Errorf("registry merge fan-in = %d, result = %d", got, res.MaxMergeFanIn)
	}
	if res.Spills == 0 || res.SpilledBytes == 0 || res.MergePasses == 0 {
		t.Errorf("spill metrics not populated: %+v", res)
	}
}

func TestWriteMapOnlyOutputModelsTaskTime(t *testing.T) {
	// 4-byte framed records on 8-byte blocks: two map tasks, [b a] and [c].
	c := newTestCluster(2, 2, 8)
	writeRecords(t, c, "in/0", [][2]string{{"b", "2"}, {"a", "1"}, {"c", "3"}})
	job := &Job{
		Name:         "maponly",
		Inputs:       []string{"in/0"},
		OutputPrefix: "mo-out/",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if parts := c.FS.List("mo-out/"); res.MapTasks != 2 || len(parts) != 2 {
		t.Fatalf("%d map tasks wrote %d output partitions, want 2 and 2", res.MapTasks, len(parts))
	}
	if res.ReduceOutputRecords != 3 {
		t.Errorf("output records = %d, want 3", res.ReduceOutputRecords)
	}
	if res.ShuffleBytes != 0 || res.ReduceTasks != 0 {
		t.Errorf("map-only job shuffled %d bytes over %d reduce tasks, want 0 and 0",
			res.ShuffleBytes, res.ReduceTasks)
	}
	// Run folds the write durations into SimTime; read them where Run
	// does, as the output-writing phase hands them to the cost model.
	splits, _, err := c.PlanSplits("in/0")
	if err != nil {
		t.Fatal(err)
	}
	store := spill.NewMemRunStore()
	env := &TaskEnv{Job: job.Name, NewMapper: job.NewMapper, Store: store}
	mapOut, _, err := c.runMapPhase(job, env, splits, NewCounters(), &Result{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	durs, fetch, err := c.runReducePhase(job, env, mapOut, NewCounters(), &Result{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 2 || len(fetch) != 2 {
		t.Fatalf("got %d durations / %d fetch entries, want 2 / 2", len(durs), len(fetch))
	}
	for i := range durs {
		if durs[i] <= 0 {
			t.Errorf("task %d write duration = %v, want > 0", i, durs[i])
		}
		if fetch[i] != 0 {
			t.Errorf("task %d fetch = %d, want 0 (map-only jobs shuffle nothing)", i, fetch[i])
		}
	}

	// End to end: the simulated time of a map-only job must charge the
	// map-side task overhead once, not again for the output-write pseudo
	// phase.
	c2 := newTestCluster(1, 1, 1024)
	c2.Cost = CostModel{TaskOverhead: time.Hour, CPUFactor: 1}
	writeRecords(t, c2, "in/0", [][2]string{{"a", "1"}})
	r2, err := c2.Run(&Job{
		Name:         "maponly-sim",
		Inputs:       []string{"in/0"},
		OutputPrefix: "mo2-out/",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SimTime < time.Hour || r2.SimTime >= 2*time.Hour {
		t.Errorf("map-only SimTime = %v, want one task overhead (>= 1h, < 2h)", r2.SimTime)
	}
}
