package mapreduce

import (
	"fmt"
	"strconv"
	"testing"

	"ffmr/internal/dfs"
)

// BenchmarkShuffle sweeps the shuffle's memory budget, from unbounded
// (segments in memory, written once per map task) down to budgets that
// force many spills and merge passes on disk, on a shuffle-heavy
// identity-count job. The end-to-end cost of a budget is ffbench's
// spill.vs_mem_wall_ratio.
func BenchmarkShuffle(b *testing.B) {
	const inputRecords = 4000
	build := func() ([][2]string, int64) {
		var kvs [][2]string
		var bytes int64
		for i := 0; i < inputRecords; i++ {
			k := fmt.Sprintf("key-%05d", i%257)
			v := fmt.Sprintf("payload-%d-abcdefghijklmnopqrstuvwxyz", i)
			kvs = append(kvs, [2]string{k, v})
			bytes += int64(len(k) + len(v))
		}
		return kvs, bytes
	}
	kvs, inBytes := build()

	job := func() *Job {
		return &Job{
			Name:         "bench",
			Inputs:       []string{"in/0"},
			OutputPrefix: "out/",
			NumReducers:  4,
			NewMapper: func() Mapper {
				return MapperFunc(func(ctx *TaskContext, key, value []byte) error {
					ctx.Emit(key, value)
					return nil
				})
			},
			NewReducer: func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key, master []byte, values *Values) error {
					ctx.Emit(key, []byte(strconv.Itoa(values.Len())))
					return nil
				})
			},
		}
	}

	cases := []struct {
		name     string
		budget   int64
		compress bool
	}{
		{"mem-unbounded", 0, false},
		{"budget-16KiB", 16 << 10, false},
		{"budget-64KiB", 64 << 10, false},
		{"budget-256KiB", 256 << 10, false},
		{"budget-64KiB-compress", 64 << 10, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			fs := dfs.New(dfs.Config{Nodes: 4, BlockSize: 32 << 10, Replication: 2})
			c := NewCluster(4, 4, fs)
			c.Cost = ZeroCostModel()
			c.MemoryBudget = tc.budget
			c.SpillDir = b.TempDir()
			c.SpillCompress = tc.compress
			var w dfs.RecordWriter
			for _, kv := range kvs {
				w.Append([]byte(kv[0]), []byte(kv[1]))
			}
			if err := fs.WriteFile("in/0", w.Bytes()); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(inBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Run(job())
				if err != nil {
					b.Fatal(err)
				}
				if tc.budget > 0 && res.Spills == 0 {
					b.Fatal("budgeted run produced no spills")
				}
			}
		})
	}
}
