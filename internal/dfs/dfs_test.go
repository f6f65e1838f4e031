package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 8, Replication: 2})
	data := []byte("hello distributed world")
	if err := fs.WriteFile("a/b", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(Config{Nodes: 2})
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read back %d bytes", len(got))
	}
	if !fs.Exists("empty") {
		t.Error("empty file does not exist")
	}
}

func TestMissingFile(t *testing.T) {
	fs := New(Config{})
	if _, err := fs.ReadFile("nope"); err == nil {
		t.Error("reading a missing file succeeded")
	}
	if _, err := fs.Blocks("nope"); err == nil {
		t.Error("blocks of a missing file succeeded")
	}
	if _, err := fs.Size("nope"); err == nil {
		t.Error("size of a missing file succeeded")
	}
	if err := fs.WriteFile("", []byte("x")); err == nil {
		t.Error("empty file name accepted")
	}
}

func TestBlockingAndPlacement(t *testing.T) {
	fs := New(Config{Nodes: 4, BlockSize: 10, Replication: 2})
	data := make([]byte, 35)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 { // 10+10+10+5
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	for i, b := range blocks {
		if len(b.Nodes) != 2 {
			t.Errorf("block %d has %d replicas, want 2", i, len(b.Nodes))
		}
		if b.Nodes[0] == b.Nodes[1] {
			t.Errorf("block %d replicas on the same node", i)
		}
	}
}

// TestWriteFileTakesOwnership pins the ownership contract on a MemRunStore:
// a one-block file is read back as the very buffer WriteFile was given,
// capacity clipped so an append copies; a file of several blocks is read
// back as a fresh copy.
func TestWriteFileTakesOwnership(t *testing.T) {
	fs := New(Config{Nodes: 2, BlockSize: 16, Replication: 2})
	one := make([]byte, 10, 64)
	copy(one, "one block!")
	if err := fs.WriteFile("one", one); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("one")
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &one[0] || cap(got) != len(one) {
		t.Errorf("one-block ReadFile: aliases the written buffer %v, cap %d; want true, %d",
			&got[0] == &one[0], cap(got), len(one))
	}

	multi := bytes.Repeat([]byte("0123456789"), 4)
	if err := fs.WriteFile("multi", multi); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("multi")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, multi) || &got[0] == &multi[0] {
		t.Errorf("multi-block ReadFile: equal %v, aliases the written buffer %v; want a copy",
			bytes.Equal(got, multi), &got[0] == &multi[0])
	}
	if st := fs.Stats(); st.BytesWritten != 50 || st.BytesRead != 50 {
		t.Errorf("stats = %+v, want 50 bytes written and read", st)
	}
}

// TestReadFileOneBlockAllocs is the allocation gate of the read path: a
// one-block file is handed out as the stored block, with no copy.
func TestReadFileOneBlockAllocs(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 1 << 10, Replication: 2})
	if err := fs.WriteFile("round-00001/part-00000", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadFile("round-00001/part-00000"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFile of a one-block file: %.1f allocs, want 0", allocs)
	}
}

// TestWriteFileOneBlockAllocs is the allocation gate of the write path: a
// one-block file costs four objects (its metadata, its block list, the
// block's object name and its placement), never a copy of the payload.
// The 300 files written first would expose a name built from a global
// block counter: the runtime boxes numbers below 256 without allocating.
func TestWriteFileOneBlockAllocs(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 1 << 10, Replication: 2})
	for i := 0; i < 300; i++ {
		if err := fs.WriteFile(fmt.Sprintf("round-00000/part-%05d", i), make([]byte, 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1<<10)
	allocs := testing.AllocsPerRun(100, func() {
		if err := fs.WriteFile("round-00001/part-00000", buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("WriteFile of a one-block file: %.1f allocs, want at most 4", allocs)
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(Config{Nodes: 2, Replication: 5})
	if got := fs.Config().Replication; got != 2 {
		t.Fatalf("replication = %d, want capped at 2", got)
	}
}

func TestOverwriteReplacesContents(t *testing.T) {
	fs := New(Config{Nodes: 2, BlockSize: 4})
	if err := fs.WriteFile("f", []byte("first version")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", []byte("2nd")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "2nd" {
		t.Fatalf("read %q after overwrite", got)
	}
	if st := fs.Stats(); st.BytesStored != 3 {
		t.Errorf("stored bytes = %d, want 3", st.BytesStored)
	}
}

func TestDeleteAndPrefixOps(t *testing.T) {
	fs := New(Config{Nodes: 2})
	names := []string{"out/part-00000", "out/part-00001", "other/x"}
	for i, n := range names {
		if err := fs.WriteFile(n, []byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.List("out/"); len(got) != 2 {
		t.Fatalf("List(out/) = %v", got)
	}
	if got := fs.TotalSize("out/"); got != 12 {
		t.Fatalf("TotalSize(out/) = %d, want 12", got)
	}
	if n := fs.DeletePrefix("out/"); n != 2 {
		t.Fatalf("DeletePrefix removed %d, want 2", n)
	}
	if fs.Exists("out/part-00000") {
		t.Error("deleted file still exists")
	}
	if !fs.Exists("other/x") {
		t.Error("unrelated file was deleted")
	}
	fs.Delete("other/x")
	fs.Delete("other/x") // idempotent
	if fs.Exists("other/x") {
		t.Error("Delete did not remove file")
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 8, Replication: 2})
	if err := fs.WriteFile("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("a"); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.BytesWritten != 100 || st.BytesRead != 100 || st.BytesStored != 100 {
		t.Errorf("stats = %+v", st)
	}
	if st.FilesCreated != 1 {
		t.Errorf("files created = %d", st.FilesCreated)
	}
	fs.Delete("a")
	st = fs.Stats()
	if st.BytesStored != 0 || st.FilesDeleted != 1 {
		t.Errorf("post-delete stats = %+v", st)
	}
	// Node replica accounting must drain to zero after delete.
	for n, b := range fs.NodeBytes() {
		if b != 0 {
			t.Errorf("node %d still accounts %d bytes", n, b)
		}
	}
}

// TestPeekAndChargeRead: PeekFile reads without charging and ChargeRead
// charges without reading, so a peek paired with a charge costs exactly
// one ReadFile.
func TestPeekAndChargeRead(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 8, Replication: 2})
	if err := fs.WriteFile("a", []byte("twenty bytes of data")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.PeekFile("a")
	if err != nil || string(data) != "twenty bytes of data" {
		t.Fatalf("PeekFile = %q, %v", data, err)
	}
	if got := fs.Stats().BytesRead; got != 0 {
		t.Errorf("PeekFile charged %d bytes, want 0", got)
	}
	if err := fs.ChargeRead("a"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().BytesRead; got != 20 {
		t.Errorf("ChargeRead charged %d bytes, want 20", got)
	}
	if err := fs.ChargeRead("missing"); err == nil {
		t.Error("ChargeRead of a missing file succeeded")
	}
	if _, err := fs.PeekFile("missing"); err == nil {
		t.Error("PeekFile of a missing file succeeded")
	}
}

// TestTagDiesWithContents: a tag belongs to the contents it was set on;
// rewriting or deleting the file drops it.
func TestTagDiesWithContents(t *testing.T) {
	fs := New(Config{Nodes: 2, BlockSize: 64})
	if fs.SetTag("a", 1) {
		t.Error("SetTag on a missing file reported success")
	}
	if err := fs.WriteFile("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if fs.Tag("a") != nil {
		t.Errorf("fresh file has tag %v", fs.Tag("a"))
	}
	if !fs.SetTag("a", "holder") || fs.Tag("a") != "holder" {
		t.Fatalf("tag = %v, want holder", fs.Tag("a"))
	}
	if err := fs.WriteFile("a", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if fs.Tag("a") != nil {
		t.Errorf("rewritten file kept tag %v", fs.Tag("a"))
	}
	fs.SetTag("a", "holder")
	fs.Delete("a")
	if err := fs.WriteFile("a", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if fs.Tag("a") != nil {
		t.Errorf("file recreated after delete has tag %v", fs.Tag("a"))
	}
}

func TestNodeBytesBalance(t *testing.T) {
	fs := New(Config{Nodes: 4, BlockSize: 10, Replication: 1})
	if err := fs.WriteFile("f", make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	nb := fs.NodeBytes()
	var total int64
	for _, b := range nb {
		total += b
		if b == 0 {
			t.Error("round-robin placement left a node empty")
		}
	}
	if total != 400 {
		t.Errorf("replica bytes total %d, want 400", total)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	fs := New(Config{Nodes: 3, BlockSize: 16, Replication: 2})
	i := 0
	f := func(data []byte) bool {
		i++
		name := fmt.Sprintf("q/%d", i)
		if err := fs.WriteFile(name, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordWriterReader(t *testing.T) {
	var w RecordWriter
	type kv struct{ k, v string }
	records := []kv{
		{"alpha", "1"},
		{"", "empty key"},
		{"empty value", ""},
		{"binary", string([]byte{0, 1, 2, 255})},
	}
	for _, r := range records {
		w.Append([]byte(r.k), []byte(r.v))
	}
	if w.Records() != len(records) {
		t.Fatalf("writer records = %d", w.Records())
	}

	r := NewRecordReader(w.Bytes())
	for i, want := range records {
		k, v, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if string(k) != want.k || string(v) != want.v {
			t.Errorf("record %d = (%q,%q), want (%q,%q)", i, k, v, want.k, want.v)
		}
	}
	if _, _, ok, err := r.Next(); ok || err != nil {
		t.Errorf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestRecordReaderCorruption(t *testing.T) {
	var w RecordWriter
	w.Append([]byte("key"), []byte("value"))
	data := w.Bytes()
	// Truncate inside the value.
	r := NewRecordReader(data[:len(data)-2])
	if _, _, _, err := r.Next(); err == nil {
		t.Error("truncated record accepted")
	}
	// A length prefix pointing past the buffer.
	r = NewRecordReader([]byte{0x20, 'x'})
	if _, _, _, err := r.Next(); err == nil {
		t.Error("overlong length accepted")
	}
}

func TestRecordWriterReset(t *testing.T) {
	var w RecordWriter
	w.Append([]byte("a"), []byte("b"))
	w.Reset()
	if w.Len() != 0 || w.Records() != 0 {
		t.Error("Reset did not clear writer")
	}
	w.Append([]byte("c"), []byte("d"))
	r := NewRecordReader(w.Bytes())
	k, v, ok, err := r.Next()
	if err != nil || !ok || string(k) != "c" || string(v) != "d" {
		t.Errorf("after reset got (%q,%q,%v,%v)", k, v, ok, err)
	}
}

func TestRecordWriterGrow(t *testing.T) {
	var w RecordWriter
	w.Append([]byte("a"), []byte("b"))
	w.Grow(1 << 10)
	first := &w.Bytes()[0]
	for w.Len() < 1<<10 {
		w.Append([]byte("key"), []byte("value"))
	}
	if &w.Bytes()[0] != first {
		t.Error("appends within the grown size reallocated the buffer")
	}
	k, v, ok, err := NewRecordReader(w.Bytes()).Next()
	if err != nil || !ok || string(k) != "a" || string(v) != "b" {
		t.Errorf("after Grow got (%q,%q,%v,%v)", k, v, ok, err)
	}
}

func TestQuickRecordFraming(t *testing.T) {
	f := func(pairs [][2][]byte) bool {
		var w RecordWriter
		for _, p := range pairs {
			w.Append(p[0], p[1])
		}
		r := NewRecordReader(w.Bytes())
		for _, p := range pairs {
			k, v, ok, err := r.Next()
			if err != nil || !ok {
				return false
			}
			if !bytes.Equal(k, p[0]) || !bytes.Equal(v, p[1]) {
				return false
			}
		}
		_, _, ok, err := r.Next()
		return !ok && err == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
