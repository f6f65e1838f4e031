package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/spill"
)

// execStores are the two shuffle media ExecMap and ExecReduce run over.
var execStores = map[string]func(t *testing.T) spill.RunStore{
	"mem": func(*testing.T) spill.RunStore { return spill.NewMemRunStore() },
	"disk": func(t *testing.T) spill.RunStore {
		s, err := spill.NewDiskRunStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	},
}

// execSplits builds map task inputs: lines of repeating words.
func execSplits(tasks, lines int) [][]byte {
	splits := make([][]byte, tasks)
	for ti := range splits {
		var w dfs.RecordWriter
		for i := 0; i < lines; i++ {
			w.Append([]byte(fmt.Sprintf("t%d-l%04d", ti, i)),
				[]byte(fmt.Sprintf("alpha bravo-%d charlie delta-%d echo-%d", i%7, i%13, i%29)))
		}
		splits[ti] = w.Bytes()
	}
	return splits
}

// sumEnv is a word count whose combiner and reducer both sum, so the
// reduce output does not depend on how often the combiner ran.
func sumEnv(store spill.RunStore) *TaskEnv {
	sum := func(values [][]byte) ([]byte, error) {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return nil, err
			}
			total += n
		}
		return []byte(strconv.Itoa(total)), nil
	}
	return &TaskEnv{
		Job:   "exec",
		Store: store,
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
				for _, w := range strings.Fields(string(value)) {
					ctx.Emit([]byte(w), []byte("1"))
				}
				return nil
			})
		},
		NewCombiner: func() Combiner {
			return CombinerFunc(func(key []byte, values [][]byte) ([][]byte, error) {
				v, err := sum(values)
				return [][]byte{v}, err
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
				var vals [][]byte
				for v := values.Next(); v != nil; v = values.Next() {
					vals = append(vals, v)
				}
				v, err := sum(vals)
				ctx.Emit(key, v)
				return err
			})
		},
	}
}

const execParts = 3

// execMaps runs one ExecMap attempt per split.
func execMaps(t *testing.T, env *TaskEnv, splits [][]byte, budget int64, compress bool, counters *Counters) []*MapResult {
	t.Helper()
	outs := make([]*MapResult, len(splits))
	for ti, split := range splits {
		r, err := ExecMap(env, &MapTask{
			Task: ti, Node: ti, Split: split, Partitions: execParts,
			Budget: budget, Compress: compress, Prefix: fmt.Sprintf("map-%05d/a0/", ti),
		}, counters, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs[ti] = r
	}
	return outs
}

// partSegments gathers partition p's segments in map-task order.
func partSegments(maps []*MapResult, p int) []spill.Segment {
	var segs []spill.Segment
	for _, m := range maps {
		segs = append(segs, m.Out.Parts[p]...)
	}
	return segs
}

// TestExecSameOutputInEveryCell runs ExecMap then ExecReduce over both
// stores, with a tiny and with no budget, raw and compressed. Every cell
// must produce byte-identical output partitions; at a fixed budget the
// statistics must not depend on the store or on compression (between
// budgets they legitimately differ: the combiner runs once per spill).
func TestExecSameOutputInEveryCell(t *testing.T) {
	type stats struct {
		InRecs, OutRecs, RawBytes, SegRecords, Spills int64
		Fetch, Inter, OutRecords                      int64
		CombineIn, CombineOut                         int64
	}
	splits := execSplits(3, 150)
	var wantOut [][]byte
	for _, budget := range []int64{512, 0} {
		var want *stats
		for storeName, newStore := range execStores {
			for _, compress := range []bool{false, true} {
				cell := fmt.Sprintf("%s/budget=%d/compress=%v", storeName, budget, compress)
				store := newStore(t)
				env := sumEnv(store)
				counters := NewCounters()
				maps := execMaps(t, env, splits, budget, compress, counters)

				var got stats
				for _, m := range maps {
					got.InRecs += m.InRecs
					got.OutRecs += m.OutRecs
					got.RawBytes += m.Out.RawBytes
					got.SegRecords += m.Out.Records
					got.Spills += m.Out.Spills
				}
				var out [][]byte
				for p := 0; p < execParts; p++ {
					r, err := ExecReduce(env, &ReduceTask{
						Task: p, Node: p, Segments: partSegments(maps, p),
						FanIn: 2, Compress: compress, TmpPrefix: fmt.Sprintf("reduce-%05d/a0/", p),
					}, counters, nil)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got.Fetch += r.Fetch
					got.Inter += r.Inter
					got.OutRecords += r.OutRecords
					out = append(out, r.Output)
				}
				snap := counters.Snapshot()
				got.CombineIn, got.CombineOut = snap["combine input records"], snap["combine output records"]

				if wantOut == nil {
					wantOut = out
				} else if !reflect.DeepEqual(out, wantOut) {
					t.Errorf("%s: reduce output differs from the first cell's", cell)
				}
				if want == nil {
					want = &got
				} else if got != *want {
					t.Errorf("%s: stats %+v, want %+v as in the budget's first cell", cell, got, *want)
				}
				if budget > 0 && got.Spills < 2*int64(len(splits)) {
					t.Errorf("%s: %d spills, want several per map task", cell, got.Spills)
				}
				if budget == 0 && got.Spills != int64(len(splits)) {
					t.Errorf("%s: %d spills, want one per map task", cell, got.Spills)
				}
				if got.Fetch != got.RawBytes || got.OutRecs == 0 || got.OutRecords == 0 {
					t.Errorf("%s: implausible stats %+v", cell, got)
				}
			}
		}
	}
}

// TestFailedMapAttemptLeavesStoreUnchanged fails map attempts after they
// have already spilled — by a mapper error and by injected spill-write
// faults — and checks that nothing of a failed attempt stays in the store.
func TestFailedMapAttemptLeavesStoreUnchanged(t *testing.T) {
	split := execSplits(1, 150)[0]
	for storeName, newStore := range execStores {
		t.Run(storeName, func(t *testing.T) {
			store := newStore(t)
			env := sumEnv(store)
			execMaps(t, env, [][]byte{split}, 512, false, NewCounters()) // a neighbour's output
			before := store.Objects()

			seen := 0
			boom := errors.New("boom")
			failing := *env
			failing.NewMapper = func() Mapper {
				inner := env.NewMapper()
				return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
					if seen++; seen > 100 {
						return boom
					}
					return inner.Map(ctx, key, value)
				})
			}
			task := MapTask{Task: 1, Split: split, Partitions: execParts, Budget: 512, Prefix: "map-00001/a0/"}
			if _, err := ExecMap(&failing, &task, NewCounters(), nil); !errors.Is(err, boom) {
				t.Fatalf("mapper error not reported: %v", err)
			}
			if got := store.Objects(); got != before {
				t.Errorf("store holds %d objects after a mapper error, want %d", got, before)
			}

			failed := 0
			task.DiskFailureRate, task.Seed = 0.05, 7
			for attempt := 0; attempt < 40; attempt++ {
				task.Attempt, task.Prefix = attempt, fmt.Sprintf("map-00001/a%d/", attempt)
				if _, err := ExecMap(env, &task, NewCounters(), nil); err == nil {
					store.RemovePrefix(task.Prefix)
					continue
				}
				failed++
				if got := store.Objects(); got != before {
					t.Fatalf("store holds %d objects after attempt %d's spill fault, want %d", got, attempt, before)
				}
			}
			if failed == 0 || failed == 40 {
				t.Fatalf("%d of 40 attempts drew a spill fault; want some, not all", failed)
			}

			// Without a budget the single write is not a disk write.
			task.Budget = 0
			task.DiskFailureRate = 1
			if _, err := ExecMap(env, &task, NewCounters(), nil); err != nil {
				t.Errorf("unbudgeted attempt drew a disk fault: %v", err)
			}
		})
	}
}

// readObjects returns the stored bytes of every listed segment.
func readObjects(t *testing.T, store spill.RunStore, segs []spill.Segment) [][]byte {
	t.Helper()
	var objs [][]byte
	for _, seg := range segs {
		rc, err := store.Open(seg.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, data)
	}
	return objs
}

// TestFailedReduceAttemptLeavesRetryUnchanged fails a reduce attempt
// half-way and retries it: the retry must produce what an undisturbed
// attempt produces, and the failed one must not have touched the stored
// segments. Where the merge copies records out of the store (on disk, or
// compressed) the failing reducer also scribbles over every value it was
// handed, which must be harmless. Where the merge parses in place
// (uncompressed, in memory) the values are the stored bytes themselves —
// that is what keeps the default shuffle free of per-record copies — and
// Values.Next's read-only contract is what protects the retry, so there
// the failing reducer keeps to it.
func TestFailedReduceAttemptLeavesRetryUnchanged(t *testing.T) {
	splits := execSplits(2, 100)
	for storeName, newStore := range execStores {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%v", storeName, compress), func(t *testing.T) {
				store := newStore(t)
				env := sumEnv(store)
				env.NewCombiner = nil // keep many values per group
				maps := execMaps(t, env, splits, 2048, compress, NewCounters())
				segs := partSegments(maps, 0)
				task := &ReduceTask{Segments: segs, FanIn: 2, Compress: compress, TmpPrefix: "reduce-00000/a0/"}
				clean, err := ExecReduce(env, task, NewCounters(), nil)
				if err != nil {
					t.Fatal(err)
				}
				stored := readObjects(t, store, segs)

				copies := storeName == "disk" || compress
				groups := 0
				boom := errors.New("boom")
				failing := *env
				failing.NewReducer = func() Reducer {
					return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
						for v := values.Next(); v != nil; v = values.Next() {
							if copies {
								for i := range v {
									v[i] = 'X'
								}
							}
						}
						if groups++; groups > 3 {
							return boom
						}
						return nil
					})
				}
				if _, err := ExecReduce(&failing, task, NewCounters(), nil); !errors.Is(err, boom) {
					t.Fatalf("reducer error not reported: %v", err)
				}
				if !reflect.DeepEqual(readObjects(t, store, segs), stored) {
					t.Error("a failed reduce attempt changed the stored segments")
				}
				retry, err := ExecReduce(env, task, NewCounters(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(retry.Output, clean.Output) || retry.OutRecords != clean.OutRecords {
					t.Error("the retry's output differs from an undisturbed attempt's")
				}
			})
		}
	}
}

// closingReducer is a Reducer with Hadoop's cleanup(): it counts the
// groups it has reduced and records what it saw each time it was closed.
type closingReducer struct {
	inner     Reducer
	reduceErr error // returned by the fourth Reduce call, if set
	closeErr  error // returned by Close, if set

	groups         int
	ctx            *TaskContext // the context of the Reduce calls
	closes         int
	groupsAtClose  int
	closeCtxIsSame bool
}

func (c *closingReducer) Reduce(ctx *TaskContext, key, master []byte, values *Values) error {
	c.ctx = ctx
	if c.groups++; c.groups > 3 && c.reduceErr != nil {
		return c.reduceErr
	}
	return c.inner.Reduce(ctx, key, master, values)
}

func (c *closingReducer) Close(ctx *TaskContext) error {
	c.closes++
	c.groupsAtClose = c.groups
	c.closeCtxIsSame = ctx == c.ctx
	ctx.Inc("closed", 1)
	return c.closeErr
}

// TestExecReduceClosesReducerOnce: a reducer that is a TaskCloser is closed
// exactly once, after the last group and with the attempt's TaskContext;
// not at all when a group or the merge fails; a Close error fails the
// attempt like any other; and a reducer without Close is left alone.
func TestExecReduceClosesReducerOnce(t *testing.T) {
	splits := execSplits(2, 100)
	boom := errors.New("boom")
	for storeName, newStore := range execStores {
		t.Run(storeName, func(t *testing.T) {
			store := newStore(t)
			env := sumEnv(store)
			maps := execMaps(t, env, splits, 2048, false, NewCounters())
			task := &ReduceTask{Task: 2, Exec: 5, Segments: partSegments(maps, 0), FanIn: 2, TmpPrefix: "reduce-00002/a5/"}
			plain, err := ExecReduce(env, task, NewCounters(), nil) // sumEnv's ReducerFunc has no Close
			if err != nil {
				t.Fatal(err)
			}

			run := func(cr *closingReducer, task *ReduceTask) (*ReduceResult, *Counters, error) {
				cr.inner = env.NewReducer()
				closing := *env
				closing.NewReducer = func() Reducer { return cr }
				counters := NewCounters()
				res, err := ExecReduce(&closing, task, counters, nil)
				return res, counters, err
			}

			ok := &closingReducer{}
			res, counters, err := run(ok, task)
			if err != nil {
				t.Fatal(err)
			}
			if ok.closes != 1 || ok.groupsAtClose != int(plain.OutRecords) || !ok.closeCtxIsSame {
				t.Errorf("closed %d times, after %d of %d groups, same context %v; want once, after all, true",
					ok.closes, ok.groupsAtClose, plain.OutRecords, ok.closeCtxIsSame)
			}
			if ok.ctx.Task() != 2 || ok.ctx.Exec() != 5 || counters.Snapshot()["closed"] != 1 {
				t.Errorf("Close saw task %d exec %d and left counters %v", ok.ctx.Task(), ok.ctx.Exec(), counters.Snapshot())
			}
			if !bytes.Equal(res.Output, plain.Output) {
				t.Error("a reducer with Close produced different output from the same reducer without")
			}

			badGroup := &closingReducer{reduceErr: boom}
			if _, _, err := run(badGroup, task); !errors.Is(err, boom) {
				t.Fatalf("reducer error not reported: %v", err)
			}
			if badGroup.closes != 0 {
				t.Errorf("closed %d times after a failed group, want 0", badGroup.closes)
			}

			badMerge := &closingReducer{}
			missing := *task
			missing.Segments = append([]spill.Segment{{Name: "no-such-segment", RawBytes: 1, StoredBytes: 1, Records: 1}}, task.Segments...)
			if _, _, err := run(badMerge, &missing); err == nil {
				t.Fatal("a missing segment did not fail the attempt")
			}
			if badMerge.closes != 0 {
				t.Errorf("closed %d times after a failed merge, want 0", badMerge.closes)
			}

			badClose := &closingReducer{closeErr: boom}
			_, _, err = run(badClose, task)
			if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mapreduce: exec reduce task 2: ") {
				t.Errorf("Close error reported as %v, want boom behind the reduce task prefix", err)
			}
			if badClose.closes != 1 {
				t.Errorf("closed %d times, want 1", badClose.closes)
			}
		})
	}
}

// TestExecMapOnly runs a job with no reducer: one partition whatever the
// key, no combiner, and a reduce body that copies the merged stream out.
func TestExecMapOnly(t *testing.T) {
	env := sumEnv(spill.NewMemRunStore())
	env.NewReducer = nil
	counters := NewCounters()
	m := execMaps(t, env, execSplits(1, 20), 256, false, counters)[0]
	if len(m.Out.Parts) != 1 || m.Out.Records != m.OutRecs {
		t.Fatalf("map-only attempt wrote %d partitions, %d of %d records", len(m.Out.Parts), m.Out.Records, m.OutRecs)
	}
	if n := counters.Snapshot()["combine input records"]; n != 0 {
		t.Errorf("map-only attempt combined %d records", n)
	}
	r, err := ExecReduce(env, &ReduceTask{Segments: m.Out.Parts[0], FanIn: 2, TmpPrefix: "reduce-00000/a0/"}, counters, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OutRecords != m.OutRecs || r.MaxGroup != 0 {
		t.Errorf("copied %d of %d records, max group %d", r.OutRecords, m.OutRecs, r.MaxGroup)
	}
	var prev []byte
	rd := dfs.NewRecordReader(r.Output)
	for {
		key, _, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if bytes.Compare(prev, key) > 0 {
			t.Fatalf("output not sorted: %q after %q", key, prev)
		}
		prev = append(prev[:0], key...)
	}
}

// TestReduceGroupsSteadyStateAllocs is the engine's share of the FF4
// contract: walking the groups of a reduce task allocates per task (the
// Values' backing slice, until it has grown), never per group. The cost
// of a task with four times the groups must be the same.
func TestReduceGroupsSteadyStateAllocs(t *testing.T) {
	const perGroup = 3
	walk := func(groups int) float64 {
		var base dfs.RecordWriter
		var shuffled [][2][]byte
		for g := 0; g < groups; g++ {
			key := []byte(fmt.Sprintf("k%06d", g))
			base.Append(key, []byte("master"))
			for i := 0; i < perGroup; i++ {
				shuffled = append(shuffled, [2][]byte{key, []byte("fragment")})
			}
		}
		ctx := (&TaskEnv{}).context(0, 0, 0, NewCounters(), func(key, value []byte) {})
		seen := 0
		reducer := ReducerFunc(func(_ *TaskContext, _, master []byte, values *Values) error {
			if master == nil || values.Len() != perGroup {
				t.Fatalf("group %d: master %q, %d values", seen, master, values.Len())
			}
			seen++
			return nil
		})
		var group Values
		return testing.AllocsPerRun(20, func() {
			i := 0
			next := func() (key, value []byte, ok bool, err error) {
				if i == len(shuffled) {
					return nil, nil, false, nil
				}
				i++
				return shuffled[i-1][0], shuffled[i-1][1], true, nil
			}
			if _, err := reduceGroups(ctx, reducer, &group, dfs.NewRecordReader(base.Bytes()), next); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := walk(100), walk(400)
	if small != large {
		t.Errorf("reduceGroups: %.0f allocs for 100 groups, %.0f for 400; want 0 per group", small, large)
	}
	if small > 8 {
		t.Errorf("reduceGroups: %.0f allocs per task, want a handful", small)
	}
}

// TestExecReduceRejectsDisorderedBase: the schimmy base partition is read
// in file order, not sorted, so a base whose keys are out of order or
// repeated fails the attempt with an error naming the job and the task.
func TestExecReduceRejectsDisorderedBase(t *testing.T) {
	for name, keys := range map[string][]string{
		"unsorted":  {"alpha", "charlie", "bravo"},
		"duplicate": {"alpha", "bravo", "bravo", "charlie"},
	} {
		t.Run(name, func(t *testing.T) {
			var base dfs.RecordWriter
			for _, k := range keys {
				base.Append([]byte(k), []byte("1"))
			}
			env := sumEnv(spill.NewMemRunStore())
			maps := execMaps(t, env, execSplits(1, 20), 0, false, NewCounters())
			_, err := ExecReduce(env, &ReduceTask{
				Task: 1, Segments: partSegments(maps, 1), FanIn: 2,
				TmpPrefix: "reduce-00001/a0/", Base: base.Bytes(),
			}, NewCounters(), nil)
			if err == nil || !strings.HasPrefix(err.Error(), "mapreduce: exec reduce task 1: schimmy base: ") ||
				!strings.Contains(err.Error(), "not in increasing order") {
				t.Fatalf("ExecReduce over a %s base: %v, want an ordering error naming job and task", name, err)
			}
		})
	}
}

// TestTaskContextIncAllocs: once an attempt has incremented a counter,
// incrementing it again allocates nothing, and what every attempt adds,
// failed attempts included, reaches the job's counters exactly.
func TestTaskContextIncAllocs(t *testing.T) {
	ctx := (&TaskEnv{}).context(0, 0, 0, NewCounters(), func(key, value []byte) {})
	ctx.Inc("records", 1)
	ctx.Inc("bytes", 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		ctx.Inc("records", 1)
		ctx.Inc("bytes", 3)
	}); allocs != 0 {
		t.Errorf("Inc on counters the attempt has seen: %.1f allocs, want 0", allocs)
	}

	// Two map attempts of one task over ten records, each adding per
	// record; the first fails on its sixth record after adding for it.
	var split dfs.RecordWriter
	for i := 0; i < 10; i++ {
		split.Append([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	counters := NewCounters()
	for attempt := 0; attempt < 2; attempt++ {
		seen := 0
		env := &TaskEnv{
			Job: "inc", Store: spill.NewMemRunStore(),
			NewMapper: func() Mapper {
				return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
					seen++
					ctx.Inc("records", 1)
					ctx.Inc("bytes", int64(len(key)+len(value)))
					if attempt == 0 && seen == 6 {
						return errors.New("boom")
					}
					return nil
				})
			},
		}
		_, err := ExecMap(env, &MapTask{Attempt: attempt, Exec: attempt, Split: split.Bytes(), Partitions: 1,
			Prefix: fmt.Sprintf("a%d/", attempt)}, counters, nil)
		if (err != nil) != (attempt == 0) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	if got, want := counters.Snapshot(), map[string]int64{"records": 16, "bytes": 16 * 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("counters after a failed and a complete attempt: %v, want %v", got, want)
	}
}
