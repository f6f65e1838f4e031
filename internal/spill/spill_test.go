package spill

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// TestFramedSizeMatchesEncoding is the canonical-codec contract: the
// accounted size of a record equals the length of its encoded frame,
// for keys and values spanning the uvarint length boundaries.
func TestFramedSizeMatchesEncoding(t *testing.T) {
	sizes := []int{0, 1, 2, 127, 128, 129, 300, 16383, 16384, 20000}
	for _, ks := range sizes {
		for _, vs := range sizes {
			key := bytes.Repeat([]byte{'k'}, ks)
			value := bytes.Repeat([]byte{'v'}, vs)
			frame := AppendFrame(nil, key, value)
			if got, want := FramedSize(key, value), int64(len(frame)); got != want {
				t.Errorf("FramedSize(len %d, len %d) = %d, encoded frame is %d bytes", ks, vs, got, want)
			}
		}
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	var buf []byte
	type kv struct{ k, v string }
	recs := []kv{{"a", "1"}, {"", ""}, {"key-two", "value with spaces"}, {"z", string(bytes.Repeat([]byte{0xff}, 200))}}
	for _, r := range recs {
		buf = AppendFrame(buf, []byte(r.k), []byte(r.v))
	}
	off := 0
	for i, r := range recs {
		key, value, next, err := ReadFrame(buf, off)
		if err != nil {
			t.Fatalf("ReadFrame record %d: %v", i, err)
		}
		if string(key) != r.k || string(value) != r.v {
			t.Fatalf("record %d = (%q, %q), want (%q, %q)", i, key, value, r.k, r.v)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestReadFrameCorruption(t *testing.T) {
	frame := AppendFrame(nil, []byte("key"), []byte("value"))
	if _, _, _, err := ReadFrame(frame[:len(frame)-2], 0); err == nil {
		t.Error("truncated frame: want error, got nil")
	}
	if _, _, _, err := ReadFrame([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0); err == nil {
		t.Error("oversized length prefix: want error, got nil")
	}
}

// testRecords generates a deterministic, skewed record set.
func testRecords(n int) [][2][]byte {
	out := make([][2][]byte, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i%37))
		value := []byte(fmt.Sprintf("value-%05d-%s", i, bytes.Repeat([]byte{'x'}, i%23)))
		out = append(out, [2][]byte{key, value})
	}
	return out
}

// drain reads an iterator to exhaustion.
func drain(t *testing.T, it *Iterator) [][2][]byte {
	t.Helper()
	var out [][2][]byte
	for {
		key, value, ok, err := it.Next()
		if err != nil {
			t.Fatalf("merge Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, [2][]byte{append([]byte(nil), key...), append([]byte(nil), value...)})
	}
}

// sortedCopy returns the records in (key, value) order.
func sortedCopy(recs [][2][]byte) [][2][]byte {
	out := append([][2][]byte(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if cmp := bytes.Compare(out[i][0], out[j][0]); cmp != 0 {
			return cmp < 0
		}
		return bytes.Compare(out[i][1], out[j][1]) < 0
	})
	return out
}

func equalRecs(a, b [][2][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i][0], b[i][0]) || !bytes.Equal(a[i][1], b[i][1]) {
			return false
		}
	}
	return true
}

// runSpillMerge pushes records through a Writer and merges partition 0,
// returning the merged stream and the writer/merge stats.
func runSpillMerge(t *testing.T, store RunStore, budget int64, fanIn int, recs [][2][]byte) ([][2][]byte, *Output, MergeStats) {
	t.Helper()
	w, err := NewWriter(Config{
		Partitions:   1,
		MemoryBudget: budget,
		Store:        store,
		NamePrefix:   "t/map-0/a0/",
		Node:         3,
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.Add(0, r[0], r[1]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	out, err := w.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	it, stats, err := Merge(store, out.Parts[0], MergeOptions{FanIn: fanIn, TmpPrefix: "t/reduce-0/a0/"})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	merged := drain(t, it)
	if err := it.Close(); err != nil {
		t.Fatalf("Iterator.Close: %v", err)
	}
	return merged, out, stats
}

func TestSpillAndMergeRoundTrip(t *testing.T) {
	// The subtest keeps the name of the uncompressed cell this test once
	// shared with a compressed one.
	t.Run("raw", func(t *testing.T) {
		store := NewMemRunStore()
		recs := testRecords(500)
		merged, out, stats := runSpillMerge(t, store, 1024, 4, recs)

		if out.Spills < 2 {
			t.Errorf("spills = %d, want >= 2 (budget must force multiple spills)", out.Spills)
		}
		if got, want := out.Records, int64(len(recs)); got != want {
			t.Errorf("records written = %d, want %d", got, want)
		}
		var bytesWant int64
		for _, r := range recs {
			bytesWant += FramedSize(r[0], r[1])
		}
		if out.Bytes != bytesWant || store.Bytes() != bytesWant {
			t.Errorf("Bytes = %d and the store holds %d, want sum of FramedSize = %d", out.Bytes, store.Bytes(), bytesWant)
		}
		if !equalRecs(merged, sortedCopy(recs)) {
			t.Error("merged stream does not equal the sorted input record set")
		}
		if stats.Passes < 1 {
			t.Errorf("merge passes = %d, want >= 1", stats.Passes)
		}
	})
}

func TestMultiPassMerge(t *testing.T) {
	store := NewMemRunStore()
	recs := testRecords(800)
	before := store.Objects()
	// Tiny budget: many segments; fan-in 2 forces intermediate passes.
	merged, out, stats := runSpillMerge(t, store, 256, 2, recs)
	if out.Spills < 5 {
		t.Fatalf("spills = %d, want >= 5 for a multi-pass merge test", out.Spills)
	}
	if stats.Passes < 2 {
		t.Errorf("merge passes = %d, want >= 2", stats.Passes)
	}
	if stats.MaxFanIn > 2 {
		t.Errorf("max fan-in = %d, want <= 2", stats.MaxFanIn)
	}
	if !equalRecs(merged, sortedCopy(recs)) {
		t.Error("multi-pass merged stream does not equal the sorted input record set")
	}
	// Iterator.Close removed the intermediate merge segments; only the
	// original spill segments remain.
	if got, want := store.Objects()-before, int(out.Spills); got != want {
		t.Errorf("store holds %d extra objects after Close, want %d (the spill segments)", got, want)
	}
}

func TestDiskStoreMatchesMemStore(t *testing.T) {
	recs := testRecords(400)
	memStore := NewMemRunStore()
	memMerged, memOut, _ := runSpillMerge(t, memStore, 512, 3, recs)

	diskStore, err := NewDiskRunStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDiskRunStore: %v", err)
	}
	defer diskStore.Close()
	diskMerged, diskOut, _ := runSpillMerge(t, diskStore, 512, 3, recs)

	if !equalRecs(memMerged, diskMerged) {
		t.Error("disk-backed merge differs from in-memory merge")
	}
	if memOut.Bytes != diskOut.Bytes || memOut.Spills != diskOut.Spills || memOut.Records != diskOut.Records {
		t.Errorf("output stats diverge: mem %+v disk %+v", memOut, diskOut)
	}
	if memStore.Bytes() != diskStore.Bytes() {
		t.Errorf("store byte accounting diverges: mem %d disk %d", memStore.Bytes(), diskStore.Bytes())
	}
}

func TestPerSpillCombiner(t *testing.T) {
	store := NewMemRunStore()
	var combineIn, combineOut int64
	w, err := NewWriter(Config{
		Partitions:   1,
		MemoryBudget: 512,
		Store:        store,
		NamePrefix:   "t/",
		Combine: func(key []byte, values [][]byte) ([][]byte, error) {
			// Keep only the first (smallest) value per key per spill.
			return values[:1], nil
		},
		OnCombine: func(in, out int64) { combineIn += in; combineOut += out },
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	// Three distinct keys: every spill's buffer holds multi-value groups,
	// so per-spill combining must shrink the output.
	recs := make([][2][]byte, 0, 300)
	for i := 0; i < 300; i++ {
		recs = append(recs, [2][]byte{
			[]byte(fmt.Sprintf("key-%d", i%3)),
			[]byte(fmt.Sprintf("value-%05d", i)),
		})
	}
	for _, r := range recs {
		if err := w.Add(0, r[0], r[1]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	out, err := w.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if combineIn != int64(len(recs)) {
		t.Errorf("combine input records = %d, want %d", combineIn, len(recs))
	}
	if combineOut != out.Records {
		t.Errorf("combine output records = %d, writer wrote %d", combineOut, out.Records)
	}
	// 37 distinct keys, combined once per spill: output is bounded by
	// keys-per-spill but must be far below the input count.
	if out.Records >= int64(len(recs)) {
		t.Errorf("combiner did not shrink output: %d records from %d inputs", out.Records, len(recs))
	}
	it, _, err := Merge(store, out.Parts[0], MergeOptions{})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	merged := drain(t, it)
	it.Close()
	if int64(len(merged)) != out.Records {
		t.Errorf("merged %d records, writer reported %d", len(merged), out.Records)
	}
}

func TestAbortRemovesPartialState(t *testing.T) {
	store := NewMemRunStore()
	w, err := NewWriter(Config{Partitions: 2, MemoryBudget: 128, Store: store, NamePrefix: "job/map-1/a0/"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range testRecords(200) {
		if err := w.Add(0, r[0], r[1]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if store.Objects() == 0 {
		t.Fatal("expected spilled segments before Abort")
	}
	w.Abort()
	if n := store.Objects(); n != 0 {
		t.Errorf("store holds %d objects after Abort, want 0", n)
	}
}

func TestFailSpillPoisonsWriter(t *testing.T) {
	store := NewMemRunStore()
	w, err := NewWriter(Config{
		Partitions:   1,
		MemoryBudget: 64,
		Store:        store,
		NamePrefix:   "f/",
		FailSpill: func(spill int) error {
			if spill == 1 {
				return fmt.Errorf("injected disk failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	var sawErr error
	for _, r := range testRecords(200) {
		if err := w.Add(0, r[0], r[1]); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Fatal("expected an injected spill failure")
	}
	if _, err := w.Close(); err == nil {
		t.Error("Close after failure: want error, got nil")
	}
	w.Abort()
	if n := store.Objects(); n != 0 {
		t.Errorf("store holds %d objects after failed attempt Abort, want 0", n)
	}
}

func TestMergeEmptyAndSingleSegment(t *testing.T) {
	store := NewMemRunStore()
	it, stats, err := Merge(store, nil, MergeOptions{})
	if err != nil {
		t.Fatalf("Merge(nil): %v", err)
	}
	if _, _, ok, _ := it.Next(); ok {
		t.Error("empty merge yielded a record")
	}
	it.Close()
	if stats.Passes != 0 {
		t.Errorf("empty merge passes = %d, want 0", stats.Passes)
	}

	recs := testRecords(50)
	merged, out, stats := runSpillMerge(t, store, 1<<30, 4, recs)
	if out.Spills != 1 {
		t.Fatalf("spills = %d, want exactly 1 under a huge budget", out.Spills)
	}
	if stats.Passes != 1 {
		t.Errorf("single-segment merge passes = %d, want 1", stats.Passes)
	}
	if !equalRecs(merged, sortedCopy(recs)) {
		t.Error("single-segment merge does not equal sorted input")
	}
}

// TestAddSteadyStateAllocs is the allocation-regression gate for the map
// hot path: buffering a record must not allocate per record. The arena
// amortizes key/value copies over pooled 64KiB chunks and the partition
// slices grow geometrically, so the measured rate is a small fraction of
// an allocation per Add; the old copy-per-record path measured 2+.
func TestAddSteadyStateAllocs(t *testing.T) {
	store := NewMemRunStore()
	w, err := NewWriter(Config{
		Partitions:   4,
		MemoryBudget: 1 << 30, // never spill during the measurement
		Store:        store,
		NamePrefix:   "t/alloc/a0/",
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	key := []byte("steady-state-key")
	value := []byte("steady-state-value-payload")
	p := 0
	allocs := testing.AllocsPerRun(20000, func() {
		if err := w.Add(p&3, key, value); err != nil {
			t.Fatal(err)
		}
		p++
	})
	if allocs > 0.1 {
		t.Errorf("Add: %.3f allocs/op on the steady-state path, want ~0", allocs)
	}
}

// TestArenaIsolatesRecords pins the arena's no-clobber contract: the key
// and value views of a record must tolerate appends without corrupting
// their neighbours. A record larger than a chunk gets a chunk of its own,
// and one that does not fit in what is left of a chunk starts the next
// one instead of straddling the two.
func TestArenaIsolatesRecords(t *testing.T) {
	var a arena
	first := a.put([]byte("alpha"), []byte("1"))
	second := a.put([]byte("beta"), []byte("2"))
	_ = append(a.key(first), 'X')   // must reallocate, not overwrite "1"
	_ = append(a.value(first), 'X') // must reallocate, not overwrite "beta"
	if string(a.value(first)) != "1" || string(a.key(second)) != "beta" {
		t.Fatalf("append through an arena view clobbered a record: %q, %q", a.value(first), a.key(second))
	}

	big := bytes.Repeat([]byte{'v'}, arenaChunkSize+1)
	r := a.put([]byte("big"), big)
	if !bytes.Equal(a.value(r), big) || string(a.key(r)) != "big" {
		t.Fatalf("oversize record read back as %d-byte key %q, %d-byte value", r.klen, a.key(r), r.vlen)
	}

	// Fill a fresh chunk to 10 bytes short of its end, then put a record
	// of 20 bytes.
	a.reset()
	fill := a.put(nil, make([]byte, arenaChunkSize-10))
	edge := a.put([]byte("0123456789"), []byte("abcdefghij"))
	if edge.chunk == fill.chunk || edge.off != 0 {
		t.Errorf("a record that does not fit went to chunk %d offset %d, want a new chunk at 0", edge.chunk, edge.off)
	}
	if string(a.key(edge)) != "0123456789" || string(a.value(edge)) != "abcdefghij" {
		t.Errorf("record at a chunk end read back as (%q, %q)", a.key(edge), a.value(edge))
	}
	a.reset()
}

// TestOversizeRecordsSpill pushes records bigger than an arena chunk, and
// records that fall at a chunk end, through a spill and a merge.
func TestOversizeRecordsSpill(t *testing.T) {
	var recs [][2][]byte
	for i := 0; i < 6; i++ {
		recs = append(recs, [2][]byte{
			[]byte(fmt.Sprintf("key-%d", i%4)),
			bytes.Repeat([]byte{byte('a' + i)}, arenaChunkSize/3+i*arenaChunkSize/5),
		})
	}
	merged, out, _ := runSpillMerge(t, NewMemRunStore(), 3*arenaChunkSize, 4, recs)
	if out.Spills < 2 || out.MaxFrame <= arenaChunkSize {
		t.Errorf("%d spills, largest frame %d; want several spills and a frame over %d", out.Spills, out.MaxFrame, arenaChunkSize)
	}
	if !equalRecs(merged, sortedCopy(recs)) {
		t.Error("merged stream does not equal the sorted input record set")
	}
}

// TestCombinerOutputInArena: what a combiner returns is copied into the
// writer's arena, so the combiner may hand back a buffer it reuses (were
// the records to alias it, every one would read as the last key's).
func TestCombinerOutputInArena(t *testing.T) {
	var scratch []byte
	w, err := NewWriter(Config{
		Partitions:   1,
		MemoryBudget: 1 << 30,
		Store:        NewMemRunStore(),
		NamePrefix:   "t/",
		Combine: func(key []byte, values [][]byte) ([][]byte, error) {
			scratch = append(scratch[:0], fmt.Sprintf("%s=%d", key, len(values))...)
			return [][]byte{scratch}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w.Add(0, []byte(fmt.Sprintf("k%d", i%3)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	w.buf.sortRecs(w.parts[0])
	combined, err := w.combine(w.parts[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range combined {
		if int(r.chunk) >= len(w.buf.chunks) {
			t.Fatalf("combined record in chunk %d of %d", r.chunk, len(w.buf.chunks))
		}
		got = append(got, string(w.buf.key(r))+":"+string(w.buf.value(r)))
	}
	if want := []string{"k0:k0=10", "k1:k1=10", "k2:k2=10"}; !reflect.DeepEqual(got, want) {
		t.Errorf("combined records %q, want %q", got, want)
	}
}

// streamOnlyStore hides that a MemRunStore's objects are in memory, so a
// merge over it loads windows with ReadAt as a merge over files does.
type streamOnlyStore struct{ *MemRunStore }

func (s streamOnlyStore) Open(name string) (Object, error) {
	obj, err := s.MemRunStore.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ Object }{obj}, nil
}

// TestInPlaceStreamMatchesStreamed reads the same segments
// once with the stored range as the one window and once a loaded window
// at a time. The records are large enough that the object writer flushes,
// and the reader slides, several times per segment.
func TestInPlaceStreamMatchesStreamed(t *testing.T) {
	store := NewMemRunStore()
	var recs [][2][]byte
	for i := 0; i < 400; i++ {
		recs = append(recs, [2][]byte{
			[]byte(fmt.Sprintf("key-%03d", i%41)),
			bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*7%1500),
		})
	}
	recs = append(recs, [2][]byte{[]byte("empty-value"), nil}, [2][]byte{nil, []byte("empty-key")})
	w, err := NewWriter(Config{Partitions: 1, MemoryBudget: 200 << 10, Store: store, NamePrefix: "t/"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Add(0, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Spills < 2 || out.Bytes < 3*segFlushBytes {
		t.Fatalf("%d spills of %d bytes: want several segments larger than the flush threshold", out.Spills, out.Bytes)
	}
	for _, c := range []struct {
		store   RunStore
		inPlace bool
	}{{store, true}, {streamOnlyStore{store}, false}} {
		st, err := openSegStream(c.store, out.Parts[0][0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.src == nil; got != c.inPlace {
			t.Errorf("%T: stream parses in place = %v, want %v", c.store, got, c.inPlace)
		}
		st.close()
	}
	read := func(s RunStore) [][2][]byte {
		it, _, err := Merge(s, out.Parts[0], MergeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		return drain(t, it)
	}
	inPlace, streamed := read(store), read(streamOnlyStore{store})
	if !equalRecs(inPlace, streamed) {
		t.Error("in-place and streamed reads of the same segments differ")
	}
	if !equalRecs(inPlace, sortedCopy(recs)) {
		t.Error("merged stream does not equal the sorted input record set")
	}
}

// TestCorruptMemObjectIsAnError damages a stored segment in ways the
// in-place parser must report rather than index past: a cut mid-frame
// (the range no longer fits the object), and a last frame replaced by a
// length that promises more bytes than remain or by a varint that never
// terminates.
func TestCorruptMemObjectIsAnError(t *testing.T) {
	lastFrame := func(obj []byte) []byte {
		off := 0
		for {
			_, _, next, err := ReadFrame(obj, off)
			if err != nil {
				t.Fatal(err)
			}
			if next == len(obj) {
				return obj[off:]
			}
			off = next
		}
	}
	for name, damage := range map[string]func(obj []byte) []byte{
		"truncated":       func(obj []byte) []byte { return obj[:len(obj)-3] },
		"overlong length": func(obj []byte) []byte { lastFrame(obj)[0] = 0x7f; return obj },
		"endless varint": func(obj []byte) []byte {
			copy(lastFrame(obj), bytes.Repeat([]byte{0xff}, 12))
			return obj
		},
	} {
		t.Run(name, func(t *testing.T) {
			store := NewMemRunStore()
			_, out, _ := runSpillMerge(t, store, 1<<30, 4, testRecords(20))
			seg := out.Parts[0][0]
			store.mu.Lock()
			store.objs[seg.Name] = damage(append([]byte(nil), store.objs[seg.Name]...))
			store.mu.Unlock()

			it, _, err := Merge(store, out.Parts[0], MergeOptions{})
			for err == nil {
				var ok bool
				if _, _, ok, err = it.Next(); !ok && err == nil {
					t.Fatal("damaged segment read to its end without an error")
				}
			}
			if it != nil {
				it.Close()
			}
		})
	}
}
