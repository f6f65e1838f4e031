package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/spill"
)

func newTestCluster(nodes, slots, blockSize int) *Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: blockSize, Replication: 2})
	c := NewCluster(nodes, slots, fs)
	c.Cost = ZeroCostModel()
	return c
}

// writeRecords stores framed records in the cluster's FS.
func writeRecords(t *testing.T, c *Cluster, name string, kvs [][2]string) {
	t.Helper()
	var w dfs.RecordWriter
	for _, kv := range kvs {
		w.Append([]byte(kv[0]), []byte(kv[1]))
	}
	if err := c.FS.WriteFile(name, w.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// readAll returns all output records under a prefix as "k=v" strings,
// sorted.
func readAll(t *testing.T, c *Cluster, prefix string) []string {
	t.Helper()
	var out []string
	for _, name := range c.FS.List(prefix) {
		data, err := c.FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		r := dfs.NewRecordReader(data)
		for {
			k, v, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, fmt.Sprintf("%s=%s", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// wordCount is the canonical MapReduce example; values are texts.
func wordCountJob(c *Cluster, inputs []string) *Job {
	return &Job{
		Name:         "wordcount",
		Inputs:       inputs,
		OutputPrefix: "wc-out/",
		NumReducers:  3,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				for _, w := range strings.Fields(string(value)) {
					ctx.Emit([]byte(w), []byte("1"))
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

func TestWordCount(t *testing.T) {
	c := newTestCluster(3, 2, 64)
	writeRecords(t, c, "in/0", [][2]string{
		{"1", "the quick brown fox"},
		{"2", "the lazy dog"},
		{"3", "the fox"},
	})
	res, err := c.Run(wordCountJob(c, []string{"in/0"}))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, c, "wc-out/")
	want := []string{"brown=1", "dog=1", "fox=2", "lazy=1", "quick=1", "the=3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if res.Counter("groups") != 6 {
		t.Errorf("groups counter = %d, want 6", res.Counter("groups"))
	}
	if res.MapInputRecords != 3 {
		t.Errorf("map input records = %d, want 3", res.MapInputRecords)
	}
	if res.MapOutputRecords != 9 {
		t.Errorf("map output records = %d, want 9", res.MapOutputRecords)
	}
	if res.ShuffleBytes <= 0 {
		t.Error("no shuffle bytes recorded")
	}
}

func TestMultiFileSplitsAndLocality(t *testing.T) {
	// Small block size so one file yields many splits; results must be
	// identical regardless of split boundaries.
	c := newTestCluster(4, 3, 32)
	var kvs [][2]string
	for i := 0; i < 200; i++ {
		kvs = append(kvs, [2]string{fmt.Sprintf("k%03d", i%17), "payload payload"})
	}
	writeRecords(t, c, "in/big", kvs)
	res, err := c.Run(&Job{
		Name:         "count",
		Inputs:       []string{"in/big"},
		OutputPrefix: "out/",
		NumReducers:  4,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, []byte("1"))
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				ctx.Emit(key, []byte(strconv.Itoa(values.Len())))
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 2 {
		t.Errorf("expected multiple map tasks, got %d", res.MapTasks)
	}
	got := readAll(t, c, "out/")
	if len(got) != 17 {
		t.Fatalf("got %d groups, want 17: %v", len(got), got)
	}
	for _, kv := range got {
		parts := strings.Split(kv, "=")
		n, _ := strconv.Atoi(parts[1])
		// 200 records spread over 17 keys: each key 11 or 12.
		if n != 11 && n != 12 {
			t.Errorf("key %s count = %d", parts[0], n)
		}
	}
}

func TestReducersSeeSortedValues(t *testing.T) {
	c := newTestCluster(2, 4, 64)
	writeRecords(t, c, "in/0", [][2]string{
		{"a", "z"}, {"a", "m"}, {"a", "a"}, {"b", "2"}, {"b", "1"},
	})
	var mu struct {
		got []string
	}
	_, err := c.Run(&Job{
		Name:         "sorted",
		Inputs:       []string{"in/0"},
		OutputPrefix: "out/",
		NumReducers:  1,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				var vals []string
				for {
					v := values.Next()
					if v == nil {
						break
					}
					vals = append(vals, string(v))
				}
				mu.got = append(mu.got, fmt.Sprintf("%s:%s", key, strings.Join(vals, ",")))
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(mu.got)
	want := []string{"a:a,m,z", "b:1,2"}
	if fmt.Sprint(mu.got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", mu.got, want)
	}
}

func TestMapOnlyJob(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	writeRecords(t, c, "in/0", [][2]string{{"k1", "v1"}, {"k2", "v2"}})
	res, err := c.Run(&Job{
		Name:         "identity",
		Inputs:       []string{"in/0"},
		OutputPrefix: "out/",
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
	if res.ShuffleBytes != 0 {
		t.Errorf("map-only job shuffled %d bytes", res.ShuffleBytes)
	}
	got := readAll(t, c, "out/")
	want := []string{"k1=v1", "k2=v2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSchimmyMergeJoin(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	// Build a base via a first job (so partition alignment holds).
	writeRecords(t, c, "in/0", [][2]string{
		{"a", "base-a"}, {"b", "base-b"}, {"c", "base-c"},
	})
	identity := func() Mapper {
		return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
			ctx.Emit(key, value)
			return nil
		})
	}
	passThrough := func() Reducer {
		return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
			v := values.Next()
			ctx.Emit(key, v)
			return nil
		})
	}
	if _, err := c.Run(&Job{
		Name: "seed", Inputs: []string{"in/0"}, OutputPrefix: "base/",
		NumReducers: 2, NewMapper: identity, NewReducer: passThrough,
	}); err != nil {
		t.Fatal(err)
	}

	// Second job: mappers emit updates for a and b only ("a" gets one,
	// "b" two); the schimmy reduce must see base values for all three
	// keys including untouched "c".
	writeRecords(t, c, "in/1", [][2]string{
		{"a", "u1"}, {"b", "u2"}, {"b", "u3"},
	})
	_, err := c.Run(&Job{
		Name: "apply", Inputs: []string{"in/1"}, OutputPrefix: "out/",
		NumReducers: 2, Schimmy: true, SchimmyBase: "base/",
		NewMapper: identity,
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				var ups []string
				for {
					v := values.Next()
					if v == nil {
						break
					}
					ups = append(ups, string(v))
				}
				ctx.Emit(key, []byte(fmt.Sprintf("%s+%s", master, strings.Join(ups, "|"))))
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, c, "out/")
	want := []string{"a=base-a+u1", "b=base-b+u2|u3", "c=base-c+"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSchimmyRequiresBase(t *testing.T) {
	c := newTestCluster(1, 1, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	_, err := c.Run(&Job{
		Name: "bad", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 1, Schimmy: true, SchimmyBase: "missing/",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return nil
			})
		},
	})
	if err == nil {
		t.Fatal("job with missing schimmy base succeeded")
	}
}

func TestJobValidation(t *testing.T) {
	c := newTestCluster(1, 1, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	mapper := func() Mapper {
		return MapperFunc(func(ctx *TaskContext, key, value []byte) error { return nil })
	}
	tests := []struct {
		name string
		job  Job
	}{
		{"no mapper", Job{Inputs: []string{"in/0"}, OutputPrefix: "o/"}},
		{"no inputs", Job{NewMapper: mapper, OutputPrefix: "o/"}},
		{"no output", Job{NewMapper: mapper, Inputs: []string{"in/0"}}},
		{"schimmy without base", Job{NewMapper: mapper, Inputs: []string{"in/0"},
			OutputPrefix: "o/", Schimmy: true, NumReducers: 1,
			NewReducer: func() Reducer { return ReducerFunc(nil) }}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Run(&tc.job); err == nil {
				t.Error("invalid job accepted")
			}
		})
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}, {"b", "y"}})
	_, err := c.Run(&Job{
		Name: "failing", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 1,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				if string(key) == "b" {
					return fmt.Errorf("boom")
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return nil
			})
		},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("mapper error not propagated: %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	_, err := c.Run(&Job{
		Name: "failing-reduce", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 1,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return fmt.Errorf("reduce boom")
			})
		},
	})
	if err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Fatalf("reducer error not propagated: %v", err)
	}
}

func TestSideFilesBroadcast(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "1"}, {"b", "2"}})
	if err := c.FS.WriteFile("side/config", []byte("MULTIPLIER")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(&Job{
		Name: "side", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 1, SideFiles: []string{"side/config"},
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				if string(ctx.SideFile("side/config")) != "MULTIPLIER" {
					return fmt.Errorf("side file missing in mapper")
				}
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				if string(ctx.SideFile("side/config")) != "MULTIPLIER" {
					return fmt.Errorf("side file missing in reducer")
				}
				ctx.Emit(key, values.Next())
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceOutputRecords != 2 {
		t.Errorf("reduce output records = %d", res.ReduceOutputRecords)
	}
}

func TestCountersAreSummed(t *testing.T) {
	c := newTestCluster(3, 2, 16)
	var kvs [][2]string
	for i := 0; i < 50; i++ {
		kvs = append(kvs, [2]string{fmt.Sprintf("k%02d", i), "v"})
	}
	writeRecords(t, c, "in/0", kvs)
	res, err := c.Run(&Job{
		Name: "counts", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 2,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Inc("records", 1)
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				ctx.Inc("records", 1)
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counter("records"); got != 100 {
		t.Errorf("records counter = %d, want 100 (50 map + 50 reduce)", got)
	}
	if res.Counter("missing") != 0 {
		t.Error("missing counter is nonzero")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Two identical runs must produce byte-identical outputs despite
	// parallel task scheduling (sorting by key and value guarantees it).
	run := func() []string {
		c := newTestCluster(4, 4, 16)
		var kvs [][2]string
		for i := 0; i < 100; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i)})
		}
		writeRecords(t, c, "in/0", kvs)
		_, err := c.Run(&Job{
			Name: "det", Inputs: []string{"in/0"}, OutputPrefix: "out/",
			NumReducers: 3,
			NewMapper: func() Mapper {
				return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
					ctx.Emit(key, value)
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
					var sb strings.Builder
					for {
						v := values.Next()
						if v == nil {
							break
						}
						sb.Write(v)
					}
					ctx.Emit(key, []byte(sb.String()))
					return nil
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, c, "out/")
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("outputs differ across identical runs")
	}
}

func TestSimTimeRespondsToCostModel(t *testing.T) {
	mk := func(cost CostModel) *Result {
		c := newTestCluster(2, 2, 64)
		c.Cost = cost
		writeRecords(t, c, "in/0", [][2]string{{"a", strings.Repeat("x", 1000)}})
		res, err := c.Run(wordCountJob(c, []string{"in/0"}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := mk(ZeroCostModel())
	real := mk(DefaultCostModel())
	if real.SimTime <= zero.SimTime {
		t.Errorf("realistic cost model (%v) not slower than zero model (%v)",
			real.SimTime, zero.SimTime)
	}
	if real.SimTime < 10*1e9/2 {
		t.Errorf("realistic model missing round overhead: %v", real.SimTime)
	}
}

func TestMoreNodesReduceSimTime(t *testing.T) {
	run := func(nodes int) *Result {
		c := newTestCluster(nodes, 2, 256)
		cm := DefaultCostModel()
		cm.RoundOverhead = 0
		cm.TaskOverhead = 0
		c.Cost = cm
		var kvs [][2]string
		for i := 0; i < 400; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%03d", i), strings.Repeat("p", 200)})
		}
		writeRecords(t, c, "in/0", kvs)
		res, err := c.Run(wordCountJob(c, []string{"in/0"}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// SimTime is built from measured task durations, and one of the 8-node
	// run's 16 concurrent tasks losing its core to a GC cycle or another
	// goroutine is enough to invert the comparison (5-10 % of runs on a
	// 2-core host), so the model gets three tries.
	var small, big *Result
	for try := 0; try < 3; try++ {
		small, big = run(1), run(8)
		if big.SimTime < small.SimTime {
			return
		}
	}
	t.Errorf("8 nodes (%v) not faster than 1 node (%v)", big.SimTime, small.SimTime)
}

func TestMaxRecordBytes(t *testing.T) {
	c := newTestCluster(1, 1, 64)
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	big := strings.Repeat("B", 5000)
	res, err := c.Run(&Job{
		Name: "big-record", Inputs: []string{"in/0"}, OutputPrefix: "out/",
		NumReducers: 1,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit([]byte("k"), []byte(big))
				ctx.Emit([]byte("k"), []byte("small"))
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRecordBytes < 5000 {
		t.Errorf("max record bytes = %d, want >= 5000", res.MaxRecordBytes)
	}
}

func TestMaxGroupBytes(t *testing.T) {
	// One hot key receives many values; its group must dominate
	// MaxGroupBytes while MaxRecordBytes stays small.
	c := newTestCluster(2, 2, 1024)
	var kvs [][2]string
	for i := 0; i < 100; i++ {
		kvs = append(kvs, [2]string{"hot", fmt.Sprintf("value-%03d", i)})
	}
	kvs = append(kvs, [2]string{"cold", "x"})
	writeRecords(t, c, "in/0", kvs)
	res, err := c.Run(identityJob([]string{"in/0"}, "out/"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxGroupBytes < 100*10 {
		t.Errorf("max group bytes = %d, want >= 1000 (the hot key's group)", res.MaxGroupBytes)
	}
	if res.MaxRecordBytes >= res.MaxGroupBytes {
		t.Errorf("max record %d not below max group %d", res.MaxRecordBytes, res.MaxGroupBytes)
	}
}

func TestPartitionStability(t *testing.T) {
	// The same key must always land in the same partition; this is what
	// makes the schimmy pattern sound across rounds.
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := partition(key, 7)
		for r := 0; r < 5; r++ {
			if partition(key, 7) != p {
				t.Fatalf("partition unstable for %s", key)
			}
		}
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestCounterFileRoundTrip(t *testing.T) {
	in := map[string]int64{"source move": 42, "sink move": 0, "neg": -17}
	out, err := DecodeCounterFile(EncodeCounterFile(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d counters, want %d", len(out), len(in))
	}
	for k, v := range in {
		if out[k] != v {
			t.Errorf("counter %s = %d, want %d", k, out[k], v)
		}
	}
	if _, err := DecodeCounterFile([]byte{0xFF}); err == nil {
		t.Error("corrupt counter file accepted")
	}
}

func TestEmptyInputRunsCleanly(t *testing.T) {
	c := newTestCluster(2, 2, 64)
	if err := c.FS.WriteFile("in/empty", nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(&Job{
		Name: "empty", Inputs: []string{"in/empty"}, OutputPrefix: "out/",
		NumReducers: 2,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MapInputRecords != 0 || res.MapTasks != 0 {
		t.Errorf("empty input produced work: %+v", res)
	}
}

func TestFramedSizeMatchesWriter(t *testing.T) {
	key := []byte("some-key")
	val := bytes.Repeat([]byte("v"), 300)
	var w dfs.RecordWriter
	w.Append(key, val)
	if got := framedSize(key, val); got != int64(w.Len()) {
		t.Errorf("framedSize = %d, writer length = %d", got, w.Len())
	}
	var buf [8]byte
	n := binary.PutUvarint(buf[:], 300)
	if spill.UvarintLen(300) != n {
		t.Errorf("UvarintLen(300) = %d, want %d", spill.UvarintLen(300), n)
	}
}
