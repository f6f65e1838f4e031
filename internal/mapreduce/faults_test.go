package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// identityJob emits every input record unchanged through a single
// reducer group pass-through.
func identityJob(inputs []string, out string) *Job {
	return &Job{
		Name: "identity", Inputs: inputs, OutputPrefix: out, NumReducers: 2,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				for {
					v := values.Next()
					if v == nil {
						return nil
					}
					ctx.Emit(key, v)
				}
			})
		},
	}
}

func TestInjectedFailuresAreRetried(t *testing.T) {
	c := newTestCluster(3, 2, 32)
	c.Fault = Faults{MaxAttempts: 10, FailureRate: 0.4, Seed: 5}
	var kvs [][2]string
	for i := 0; i < 60; i++ {
		kvs = append(kvs, [2]string{fmt.Sprintf("k%02d", i), "v"})
	}
	writeRecords(t, c, "in/0", kvs)
	res, err := c.Run(identityJob([]string{"in/0"}, "out/"))
	if err != nil {
		t.Fatalf("job with retries failed: %v", err)
	}
	if res.Counter("task failures") == 0 {
		t.Error("no failures injected at 40% rate")
	}
	got := readAll(t, c, "out/")
	if len(got) != 60 {
		t.Fatalf("lost records under retries: got %d, want 60", len(got))
	}
}

func TestOutputIdenticalWithAndWithoutFailures(t *testing.T) {
	run := func(fault Faults) []string {
		c := newTestCluster(3, 2, 32)
		c.Fault = fault
		var kvs [][2]string
		for i := 0; i < 80; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%02d", i%11), fmt.Sprintf("v%d", i)})
		}
		writeRecords(t, c, "in/0", kvs)
		if _, err := c.Run(identityJob([]string{"in/0"}, "out/")); err != nil {
			t.Fatal(err)
		}
		return readAll(t, c, "out/")
	}
	clean := run(Faults{})
	faulty := run(Faults{MaxAttempts: 20, FailureRate: 0.5, Seed: 9})
	if fmt.Sprint(clean) != fmt.Sprint(faulty) {
		t.Fatal("fault tolerance changed job output")
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	c := newTestCluster(1, 1, 64)
	c.Fault = Faults{MaxAttempts: 3, FailureRate: 1.0, Seed: 1} // always fails
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	_, err := c.Run(identityJob([]string{"in/0"}, "out/"))
	if err == nil {
		t.Fatal("job succeeded despite certain failure")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not mention attempts: %v", err)
	}
}

func TestDeterministicUserErrorNotMaskedByRetries(t *testing.T) {
	c := newTestCluster(1, 1, 64)
	c.Fault = Faults{MaxAttempts: 4}
	writeRecords(t, c, "in/0", [][2]string{{"a", "x"}})
	attempts := 0
	_, err := c.Run(&Job{
		Name: "always-bad", Inputs: []string{"in/0"}, OutputPrefix: "out/", NumReducers: 1,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				attempts++
				return fmt.Errorf("deterministic bug")
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				return nil
			})
		},
	})
	if err == nil || !strings.Contains(err.Error(), "deterministic bug") {
		t.Fatalf("expected the user error to surface, got %v", err)
	}
	if attempts != 4 {
		t.Errorf("mapper ran %d times, want 4 (MaxAttempts)", attempts)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	run := func(useCombiner bool) *Result {
		c := newTestCluster(2, 2, 1<<20) // one split: all aggregation local
		var kvs [][2]string
		for i := 0; i < 300; i++ {
			kvs = append(kvs, [2]string{"k", fmt.Sprintf("%d", i%5)})
		}
		writeRecords(t, c, "in/0", kvs)
		job := &Job{
			Name: "sum", Inputs: []string{"in/0"}, OutputPrefix: "out/", NumReducers: 2,
			NewMapper: func() Mapper {
				return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
					ctx.Emit(value, []byte("1"))
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
					sum := 0
					for {
						v := values.Next()
						if v == nil {
							break
						}
						n, _ := strconv.Atoi(string(v))
						sum += n
					}
					ctx.Emit(key, []byte(strconv.Itoa(sum)))
					return nil
				})
			},
		}
		if useCombiner {
			job.NewCombiner = func() Combiner {
				return CombinerFunc(func(key []byte, values [][]byte) ([][]byte, error) {
					sum := 0
					for _, v := range values {
						n, _ := strconv.Atoi(string(v))
						sum += n
					}
					return [][]byte{[]byte(strconv.Itoa(sum))}, nil
				})
			}
		}
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	combined := run(true)
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not reduce shuffle: %d vs %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
	// Results must agree.
	if combined.Counter("combine input records") == 0 {
		t.Error("combine counters missing")
	}
}

func TestCombinerPreservesResults(t *testing.T) {
	runOut := func(useCombiner bool) []string {
		c := newTestCluster(3, 2, 64)
		var kvs [][2]string
		for i := 0; i < 120; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%d", i), fmt.Sprintf("w%d w%d", i%3, i%7)})
		}
		writeRecords(t, c, "in/0", kvs)
		job := wordCountJob(c, []string{"in/0"})
		if useCombiner {
			job.NewCombiner = func() Combiner {
				return CombinerFunc(func(key []byte, values [][]byte) ([][]byte, error) {
					// Word count's combiner: sum the partial counts.
					sum := 0
					for _, v := range values {
						n, _ := strconv.Atoi(string(v))
						sum += n
					}
					return [][]byte{[]byte(strconv.Itoa(sum))}, nil
				})
			}
			// The reducer must then sum counts, not count values; replace.
			job.NewReducer = func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
					sum := 0
					for {
						v := values.Next()
						if v == nil {
							break
						}
						n, _ := strconv.Atoi(string(v))
						sum += n
					}
					ctx.Emit(key, []byte(strconv.Itoa(sum)))
					return nil
				})
			}
		} else {
			job.NewReducer = func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
					sum := 0
					for {
						v := values.Next()
						if v == nil {
							break
						}
						n, _ := strconv.Atoi(string(v))
						sum += n
					}
					ctx.Emit(key, []byte(strconv.Itoa(sum)))
					return nil
				})
			}
		}
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		return readAll(t, c, "wc-out/")
	}
	if fmt.Sprint(runOut(false)) != fmt.Sprint(runOut(true)) {
		t.Fatal("combiner changed the result")
	}
}

// TestStragglersLengthenSimTime: the straggler draws multiply task costs,
// so a cost model with stragglers charges a longer phase tail than the
// same model without them.
func TestStragglersLengthenSimTime(t *testing.T) {
	run := func(prob float64) *Result {
		c := newTestCluster(2, 2, 16)
		cm := ZeroCostModel()
		cm.TaskOverhead = 100 * 1e6 // 100ms per task, so stragglers matter
		cm.StragglerProb = prob
		cm.StragglerFactor = 10
		c.Cost = cm
		var kvs [][2]string
		for i := 0; i < 100; i++ {
			kvs = append(kvs, [2]string{fmt.Sprintf("k%03d", i), "payload-payload"})
		}
		writeRecords(t, c, "in/0", kvs)
		res, err := c.Run(identityJob([]string{"in/0"}, "out/"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if plain, slow := run(0), run(0.3); slow.SimTime <= plain.SimTime {
		t.Errorf("stragglers did not lengthen the simulated time: %v vs %v", slow.SimTime, plain.SimTime)
	}
}

func TestInjectHashDeterministicAndSpread(t *testing.T) {
	a := injectHash(1, "job", "map", 3, 0)
	b := injectHash(1, "job", "map", 3, 0)
	if a != b {
		t.Fatal("injectHash not deterministic")
	}
	if injectHash(1, "job", "map", 3, 1) == a && injectHash(1, "job", "map", 4, 0) == a {
		t.Fatal("injectHash ignores task/attempt")
	}
	// Rough uniformity: mean of many draws near 0.5.
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := injectHash(7, "j", "map", i, 0)
		if v < 0 || v >= 1 {
			t.Fatalf("draw %f out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("draw mean %f far from 0.5", mean)
	}
}
