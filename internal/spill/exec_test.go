package spill_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// These tests drive the spill package the way the engine does, through
// mapreduce.ExecMap and ExecReduce, which is where the lifetime rule on
// Iterator.Next has to be enough: reduceGroups holds a whole key group
// while the reducer runs.

const execParts = 2

// execEnv is an identity map and a reduce that, per key, emits how many
// values it got, their total length and a checksum over all of them,
// read only once the whole group has been gathered.
func execEnv(store spill.RunStore) *mapreduce.TaskEnv {
	return &mapreduce.TaskEnv{
		Job:   "spill-exec",
		Store: store,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key, _ []byte, values *mapreduce.Values) error {
				sum, size := crc32.NewIEEE(), 0
				for v := values.Next(); v != nil; v = values.Next() {
					sum.Write(v)
					size += len(v)
				}
				ctx.Emit(key, []byte(fmt.Sprintf("%d values, %d bytes, crc %08x", values.Len(), size, sum.Sum32())))
				return nil
			})
		},
	}
}

// execSplits builds two map inputs of about a megabyte each. The first
// opens with one key's 3000 values — a group of some 240 KB, so within
// the task's first spill it spans more than three windows — and holds a
// record longer than a window; both inputs add to that group and to many
// small ones.
func execSplits() [][]byte {
	splits := make([][]byte, 2)
	for ti := range splits {
		var w dfs.RecordWriter
		if ti == 0 {
			for i := 0; i < 3000; i++ {
				w.Append([]byte("hot"), []byte(fmt.Sprintf("hot-%05d-%s", i, bytes.Repeat([]byte{'h'}, 64))))
			}
			w.Append([]byte("key-000100"), bytes.Repeat([]byte{'B'}, spill.WindowBytes+5000))
		}
		for i := 0; i < 9000; i++ {
			key := []byte(fmt.Sprintf("key-%06d", (i*7919+ti)%2500))
			if i%500 == 0 {
				key = []byte("hot")
			}
			w.Append(key, []byte(fmt.Sprintf("t%d-%06d-%s", ti, i, bytes.Repeat([]byte{byte('a' + i%26)}, i%90))))
		}
		splits[ti] = w.Bytes()
	}
	return splits
}

func execMaps(t *testing.T, env *mapreduce.TaskEnv) []*mapreduce.MapResult {
	t.Helper()
	var outs []*mapreduce.MapResult
	for ti, split := range execSplits() {
		r, err := mapreduce.ExecMap(env, &mapreduce.MapTask{
			Task: ti, Node: ti, Split: split, Partitions: execParts,
			Budget: 512 << 10, Prefix: fmt.Sprintf("map-%05d/a0/", ti),
		}, mapreduce.NewCounters(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Out.Spills < 2 || int64(env.Store.Objects()) < r.Out.Spills {
			t.Fatalf("map task %d: %d spills, %d objects in the store; want several, an object each", ti, r.Out.Spills, env.Store.Objects())
		}
		outs = append(outs, r)
	}
	return outs
}

func reduceTask(maps []*mapreduce.MapResult, p int) *mapreduce.ReduceTask {
	t := &mapreduce.ReduceTask{Task: p, Node: p, FanIn: 2, TmpPrefix: fmt.Sprintf("reduce-%05d/a0/", p)}
	for _, m := range maps {
		t.Segments = append(t.Segments, m.Out.Parts[p]...)
	}
	return t
}

func newDiskStore(t *testing.T) *spill.DiskRunStore {
	t.Helper()
	store, err := spill.NewDiskRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestSpillPoisonedWindowsMatchMemStore is the lifetime differential.
// The reference is the cell that never recycles anything: a MemRunStore,
// whose records alias the stored objects. A DiskRunStore reads through
// windows; it runs with each window overwritten the moment it is
// recycled, and must produce the same reduce output byte for byte —
// so no record reaches a reducer, or the heap's comparisons, or an
// intermediate merge pass, after its window has been given away.
func TestSpillPoisonedWindowsMatchMemStore(t *testing.T) {
	reduceAll := func(store spill.RunStore) [][]byte {
		env := execEnv(store)
		maps := execMaps(t, env)
		var out [][]byte
		for p := 0; p < execParts; p++ {
			before := store.Objects()
			r, err := mapreduce.ExecReduce(env, reduceTask(maps, p), mapreduce.NewCounters(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.MergePasses < 3 || store.Objects() != before {
				t.Fatalf("partition %d: %d merge passes, %d objects left of %d; want intermediate passes and none of their objects",
					p, r.MergePasses, store.Objects(), before)
			}
			out = append(out, r.Output)
		}
		return out
	}
	want := reduceAll(spill.NewMemRunStore())

	spill.PoisonRecycledWindows(t)
	got := reduceAll(newDiskStore(t))
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			t.Errorf("disk: output partition %d differs from the in-memory cell's", p)
		}
	}
}

// openFds counts the process's open file descriptors.
func openFds(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return len(entries)
}

// TestSpillFailedTaskLeavesNoFdOrObject fails a reduce attempt in the
// middle of a group and a map attempt after it has spilled, on disk. Each
// leaves the process's descriptors and the store's objects as it found
// them.
func TestSpillFailedTaskLeavesNoFdOrObject(t *testing.T) {
	store := newDiskStore(t)
	env := execEnv(store)
	maps := execMaps(t, env)
	fds, objects := openFds(t), store.Objects()
	boom := errors.New("boom")
	check := func(what string) {
		t.Helper()
		if got := openFds(t); got != fds {
			t.Errorf("%d descriptors open after %s, %d before it", got, what, fds)
		}
		if got := store.Objects(); got != objects {
			t.Errorf("store holds %d objects after %s, %d before it", got, what, objects)
		}
	}

	failing := *env
	groups := 0
	failing.NewReducer = func() mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(_ *mapreduce.TaskContext, _, _ []byte, values *mapreduce.Values) error {
			if groups++; groups < 40 {
				return nil
			}
			values.Next()
			return boom
		})
	}
	if _, err := mapreduce.ExecReduce(&failing, reduceTask(maps, 0), mapreduce.NewCounters(), nil); !errors.Is(err, boom) {
		t.Fatalf("reducer error not reported: %v", err)
	}
	check("a reducer failed mid-group")

	failing = *env
	seen := 0
	failing.NewMapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, key, value []byte) error {
			if seen++; seen > 8000 {
				if store.Objects() == objects {
					t.Error("the map attempt had not spilled when it failed")
				}
				return boom
			}
			ctx.Emit(key, value)
			return nil
		})
	}
	_, err := mapreduce.ExecMap(&failing, &mapreduce.MapTask{
		Task: 2, Split: execSplits()[0], Partitions: execParts, Budget: 512 << 10, Prefix: "map-00002/a0/",
	}, mapreduce.NewCounters(), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("mapper error not reported: %v", err)
	}
	check("a map attempt aborted")
}
