package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"ffmr/internal/spill"
)

// newDiskFS creates a disk-backed FS rooted under t.TempDir and closes it
// at test end.
func newDiskFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	store, err := spill.NewDiskRunStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDiskRunStore: %v", err)
	}
	fs := NewWithStore(cfg, store)
	t.Cleanup(func() {
		if err := fs.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return fs
}

// eachStore runs a subtest against both a memory-backed and a disk-backed
// FS with the same configuration.
func eachStore(t *testing.T, cfg Config, body func(t *testing.T, fs *FS)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { body(t, New(cfg)) })
	t.Run("disk", func(t *testing.T) { body(t, newDiskFS(t, cfg)) })
}

func TestStoreReplicationExceedsNodes(t *testing.T) {
	eachStore(t, Config{Nodes: 3, BlockSize: 8, Replication: 9}, func(t *testing.T, fs *FS) {
		if got := fs.Config().Replication; got != 3 {
			t.Fatalf("replication = %d, want capped at 3 nodes", got)
		}
		data := []byte("replication wider than the cluster")
		if err := fs.WriteFile("wide", data); err != nil {
			t.Fatal(err)
		}
		blocks, err := fs.Blocks("wide")
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			if len(b.Nodes) != 3 {
				t.Fatalf("block %d has %d replicas, want 3", i, len(b.Nodes))
			}
			seen := map[int]bool{}
			for _, n := range b.Nodes {
				if n < 0 || n >= 3 {
					t.Fatalf("block %d replica on node %d, want [0,3)", i, n)
				}
				if seen[n] {
					t.Fatalf("block %d places two replicas on node %d", i, n)
				}
				seen[n] = true
			}
		}
		// Every node holds a full copy, so replica accounting is 3x payload.
		var total int64
		for _, nb := range fs.NodeBytes() {
			total += nb
		}
		if want := 3 * int64(len(data)); total != want {
			t.Fatalf("replica bytes = %d, want %d", total, want)
		}
	})
}

func TestStoreZeroLengthFile(t *testing.T) {
	eachStore(t, Config{Nodes: 2, BlockSize: 16, Replication: 2}, func(t *testing.T, fs *FS) {
		if err := fs.WriteFile("empty", nil); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile("empty")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("read %d bytes from empty file", len(got))
		}
		blocks, err := fs.Blocks("empty")
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != 1 || len(blocks[0].Nodes) != 2 {
			t.Fatalf("empty file blocks = %+v, want one block on two nodes", blocks)
		}
		if sz, _ := fs.Size("empty"); sz != 0 {
			t.Fatalf("Size = %d, want 0", sz)
		}
		// Overwriting and deleting a zero-length file must keep accounting
		// balanced.
		fs.Delete("empty")
		st := fs.Stats()
		if st.BytesStored != 0 {
			t.Fatalf("BytesStored = %d after delete, want 0", st.BytesStored)
		}
		for n, nb := range fs.NodeBytes() {
			if nb != 0 {
				t.Fatalf("node %d holds %d bytes after delete, want 0", n, nb)
			}
		}
	})
}

// TestStoreByteAccountingEquality drives a MemRunStore-backed and a
// DiskRunStore-backed FS through the same write/read/overwrite/delete
// sequence and asserts identical contents, stats, and per-node replica
// accounting — the disk path must be a pure storage substitution.
func TestStoreByteAccountingEquality(t *testing.T) {
	cfg := Config{Nodes: 4, BlockSize: 64, Replication: 2}
	mem := New(cfg)
	disk := newDiskFS(t, cfg)

	rng := rand.New(rand.NewSource(7))
	names := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("out/part-%05d", i)
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		names = append(names, name)
		for _, fs := range []*FS{mem, disk} {
			if err := fs.WriteFile(name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Overwrite a few, read a few, delete a prefix — on both.
	for _, fs := range []*FS{mem, disk} {
		if err := fs.WriteFile(names[3], []byte("replaced")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(names[5]); err != nil {
			t.Fatal(err)
		}
		if n := fs.DeletePrefix("out/part-0000"); n != 10 {
			t.Fatalf("DeletePrefix removed %d, want 10", n)
		}
	}

	if ms, ds := mem.Stats(), disk.Stats(); ms != ds {
		t.Fatalf("stats diverge:\n mem  %+v\n disk %+v", ms, ds)
	}
	if mn, dn := mem.NodeBytes(), disk.NodeBytes(); !reflect.DeepEqual(mn, dn) {
		t.Fatalf("node bytes diverge: mem %v disk %v", mn, dn)
	}
	if ml, dl := mem.List(""), disk.List(""); !reflect.DeepEqual(ml, dl) {
		t.Fatalf("file lists diverge: mem %v disk %v", ml, dl)
	}
	for _, name := range mem.List("") {
		mb, err := mem.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		db, err := disk.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb, db) {
			t.Fatalf("contents of %q diverge", name)
		}
	}
	if mem.TotalSize("") != disk.TotalSize("") {
		t.Fatalf("total size diverges: mem %d disk %d", mem.TotalSize(""), disk.TotalSize(""))
	}
}

func TestDiskRunStoreCloseRemovesDir(t *testing.T) {
	store, err := spill.NewDiskRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := NewWithStore(Config{Nodes: 2, BlockSize: 8, Replication: 1}, store)
	if err := fs.WriteFile("f", []byte("some block payload bytes")); err != nil {
		t.Fatal(err)
	}
	root := store.Root()
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("store root missing before Close: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("store root still present after Close (err=%v)", err)
	}
}
