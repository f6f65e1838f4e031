package spill

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"ffmr/internal/trace"
)

// spillAll pushes recs through a Writer over parts partitions, record i
// to partition i%parts.
func spillAll(t testing.TB, store RunStore, prefix string, parts int, budget int64, recs [][2][]byte) *Output {
	t.Helper()
	w, err := NewWriter(Config{Partitions: parts, MemoryBudget: budget, Store: store, NamePrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Add(i%parts, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// storeCells are the two cells of the read path: the object in memory,
// read where it lies, and on disk, read through windows.
func storeCells(t *testing.T, run func(t *testing.T, store RunStore)) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			var store RunStore = NewMemRunStore()
			if disk {
				ds, err := NewDiskRunStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				store = ds
			}
			defer store.Close()
			run(t, store)
		})
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

// TestMergeSteadyStateAllocs is the allocation gate of the reduce side:
// once every stream has the windows it cycles through, Next allocates
// nothing per record, wherever the segments are. Segments are many
// windows long, so the measured calls
// slide, retire and recycle windows all the time.
func TestMergeSteadyStateAllocs(t *testing.T) {
	const warm, measured = 20000, 60000
	var recs [][2][]byte
	for i := 0; i < warm+measured+1000; i++ {
		recs = append(recs, [2][]byte{
			[]byte(fmt.Sprintf("key-%07d", i/3)),
			[]byte(fmt.Sprintf("value-%07d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%61))),
		})
	}
	storeCells(t, func(t *testing.T, store RunStore) {
		out := spillAll(t, store, "t/", 1, 1<<20, recs)
		if out.Spills < 4 || out.Bytes/out.Spills < 4*windowBytes {
			t.Fatalf("%d spills of %d bytes: want several segments of many windows each", out.Spills, out.Bytes)
		}
		it, _, err := Merge(store, out.Parts[0], MergeOptions{FanIn: int(out.Spills)})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		next := func() {
			if _, _, ok, err := it.Next(); !ok || err != nil {
				t.Fatalf("Next: ok %v, err %v", ok, err)
			}
		}
		for i := 0; i < warm; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(measured, next); allocs != 0 {
			t.Errorf("Next: %.0f allocs per record once windows are warm, want 0", allocs)
		}
	})
}

// createCounter counts the objects created in a store.
type createCounter struct {
	RunStore
	creates int
}

func (c *createCounter) Create(name string, size int64) (io.WriteCloser, error) {
	c.creates++
	return c.RunStore.Create(name, size)
}

// TestSpillIsOneObject pins the indexed layout and the arithmetic the
// "spill store objects" counter rests on: a map task creates one object
// per spill however many partitions it has, every segment is a range of
// its spill's object and the ranges tile it, and a merge creates one
// object per pass that is not the final one, gone again at Close.
func TestSpillIsOneObject(t *testing.T) {
	storeCells(t, func(t *testing.T, store RunStore) {
		const parts = 5
		tr := trace.New()
		counted := &createCounter{RunStore: store}
		w, err := NewWriter(Config{Partitions: parts, MemoryBudget: 2048, Store: counted, NamePrefix: "j/map-0/a0/", Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range testRecords(600) {
			if err := w.Add(i%parts, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		out, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Spills < 5 {
			t.Fatalf("%d spills, want several", out.Spills)
		}
		if int64(counted.creates) != out.Spills || int64(store.Objects()) != out.Spills {
			t.Errorf("%d spills created %d objects and left %d in the store, want one each",
				out.Spills, counted.creates, store.Objects())
		}
		// Partition by partition, each spill's segments tile its object.
		ends := make(map[string]int64)
		var segments int64
		for p := range out.Parts {
			for _, seg := range out.Parts[p] {
				if seg.Partition != p || seg.Offset != ends[seg.Name] {
					t.Errorf("segment %+v of partition %d: the one before it in the object ends at %d", seg, p, ends[seg.Name])
				}
				ends[seg.Name] = seg.Offset + seg.Bytes
				segments++
			}
		}
		var stored int64
		for _, end := range ends {
			stored += end
		}
		if len(ends) != int(out.Spills) || stored != store.Bytes() || stored != out.Bytes {
			t.Errorf("segments tile %d bytes of %d objects; the store holds %d bytes, the writer reports %d in %d spills",
				stored, len(ends), store.Bytes(), out.Bytes, out.Spills)
		}

		counted.creates = 0
		it, stats, err := Merge(counted, out.Parts[2], MergeOptions{FanIn: 2, TmpPrefix: "j/reduce-2/a0/", Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Passes - 1; stats.Passes < 3 || int64(counted.creates) != want || int64(store.Objects()) != out.Spills+want {
			t.Errorf("%d merge passes created %d objects and the store holds %d; want %d created on top of %d spills",
				stats.Passes, counted.creates, store.Objects(), want, out.Spills)
		}
		if got := len(drain(t, it)); got != 600/parts {
			t.Errorf("merged %d records of partition 2, want %d", got, 600/parts)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if int64(store.Objects()) != out.Spills {
			t.Errorf("store holds %d objects after Close, want the %d spills", store.Objects(), out.Spills)
		}

		var spillSpans, mergeSpans, partitions int64
		for _, sp := range tr.Drain() {
			attrs := make(map[string]int64)
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Int
			}
			switch sp.Cat {
			case trace.CatSpill:
				spillSpans++
				partitions += attrs["partitions"]
				if attrs["objects"] != 1 || attrs["partitions"] == 0 || attrs["records"] == 0 || attrs["raw_bytes"] == 0 {
					t.Errorf("span %s has attributes %v, want 1 object of some partitions", sp.Name, attrs)
				}
			case trace.CatMerge:
				mergeSpans++
				if attrs["segments"] != 2 || attrs["records"] == 0 || attrs["raw_bytes"] == 0 {
					t.Errorf("span %s has attributes %v, want 2 segments and what they held", sp.Name, attrs)
				}
			}
		}
		if spillSpans != out.Spills || partitions != segments || mergeSpans != stats.Passes-1 {
			t.Errorf("%d spill spans of %d partitions and %d merge-pass spans, want %d, %d and %d",
				spillSpans, partitions, mergeSpans, out.Spills, segments, stats.Passes-1)
		}
	})
}

// TestDiskStoreRootEmptyAfterRemoval: a disk store's objects are files
// directly under its root, so once a resident worker has cleaned a job up
// — or a map attempt has aborted — nothing of it is left there, no
// directory either.
func TestDiskStoreRootEmptyAfterRemoval(t *testing.T) {
	store, err := NewDiskRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rootEntries := func() int {
		entries, err := os.ReadDir(store.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("store root holds a directory, %q", e.Name())
			}
		}
		return len(entries)
	}

	// What a distmr worker holds of job 7 when CleanJob arrives: its own
	// map output, segments fetched from other workers, and the
	// intermediate objects of a merge in progress.
	out := spillAll(t, store, "j00007/map-00003/a1/", 4, 512, testRecords(300))
	for p, segs := range out.Parts {
		data, err := ReadRange(store, segs[0].Name, segs[0].Offset, segs[0].Bytes)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := store.Create(fmt.Sprintf("j00007/map-00009/a0/spill-00000@%d", p), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		wc.Write(data)
		if err := wc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	it, stats, err := Merge(store, out.Parts[0], MergeOptions{FanIn: 2, TmpPrefix: "j00007/reduce-00000/a0/"})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if want := int(out.Spills) + 4 + int(stats.Passes-1); stats.Passes < 2 || rootEntries() != want || store.Objects() != want {
		t.Fatalf("root holds %d files and the store %d objects before the clean-up, want %d", rootEntries(), store.Objects(), want)
	}
	store.RemovePrefix("j00007/")
	if n := rootEntries(); n != 0 || store.Objects() != 0 {
		t.Errorf("root holds %d entries and the store %d objects after RemovePrefix, want none", n, store.Objects())
	}

	w, err := NewWriter(Config{Partitions: 4, MemoryBudget: 512, Store: store, NamePrefix: "j00008/map-00000/a0/"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range testRecords(300) {
		if err := w.Add(i%4, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if rootEntries() == 0 {
		t.Fatal("the attempt had not spilled before it was aborted")
	}
	w.Abort()
	if n := rootEntries(); n != 0 || store.Objects() != 0 {
		t.Errorf("root holds %d entries and the store %d objects after Abort, want none", n, store.Objects())
	}
}

// TestFailedMergeLeavesNoFdOrObject corrupts the third of four segments
// on disk — its first frame, which fails Merge itself, or a later one,
// which fails a Next — under a fan-in that reads it in the final pass and
// under one that reads it in an intermediate pass. However the merge
// fails, once the iterator is closed (Merge closes the one it does not
// return) no descriptor is still open and no intermediate object is left.
func TestFailedMergeLeavesNoFdOrObject(t *testing.T) {
	for _, fanIn := range []int{4, 2} {
		for _, late := range []bool{false, true} {
			t.Run(fmt.Sprintf("fanIn=%d/late=%v", fanIn, late), func(t *testing.T) {
				store, err := NewDiskRunStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				out := spillAll(t, store, "t/", 1, 2048, testRecords(400))
				if out.Spills < 4 {
					t.Fatalf("%d spills, want 4", out.Spills)
				}
				segs := out.Parts[0][:4]
				seg := segs[2]
				// The damage is a key length no segment has room for, written
				// over the first frame or over the first one past two thirds.
				at := seg.Offset
				if late {
					data, err := ReadRange(store, seg.Name, seg.Offset, seg.Bytes)
					if err != nil {
						t.Fatal(err)
					}
					frame := 0
					for int64(frame) < seg.Bytes*2/3 {
						if _, _, frame, err = ReadFrame(data, frame); err != nil {
							t.Fatal(err)
						}
					}
					at += int64(frame)
				}
				f, err := os.OpenFile(store.path(seg.Name), os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 12), at); err != nil {
					t.Fatal(err)
				}
				f.Close()

				fds, objects := openFds(t), store.Objects()
				it, _, err := Merge(store, segs, MergeOptions{FanIn: fanIn, TmpPrefix: "t/reduce/", window: 256})
				for err == nil {
					var ok bool
					if _, _, ok, err = it.Next(); !ok && err == nil {
						t.Fatal("the corrupt segment merged without an error")
					}
				}
				if it != nil {
					if late && fanIn == 4 && len(it.h) == 0 {
						t.Error("the merge failed with no stream open: nothing for Close to release")
					}
					it.Close()
				}
				if got := openFds(t); got != fds {
					t.Errorf("%d descriptors open after the failed merge, %d before it", got, fds)
				}
				if got := store.Objects(); got != objects {
					t.Errorf("store holds %d objects after the failed merge, %d before it", got, objects)
				}
			})
		}
	}
}

// TestWindowedMergeMatchesInPlace merges the same segments with the
// stored range as each stream's one window and through loaded windows
// from one byte up, so that a window's end cuts frames at every possible
// place: in a length prefix, in a key, in a value. The records include an
// empty key, an empty value, a key group far longer than a window and a
// record longer than one; every recycled window is poisoned, and drain
// copies a record before it asks for the next, which is within the rule
// on Next.
func TestWindowedMergeMatchesInPlace(t *testing.T) {
	poisonRecycled = true
	defer func() { poisonRecycled = false }()
	recs := testRecords(300)
	recs = append(recs, [2][]byte{[]byte("empty-value"), nil}, [2][]byte{nil, []byte("empty-key")},
		[2][]byte{[]byte("key-017"), bytes.Repeat([]byte{'L'}, 3000)})
	for i := 0; i < 200; i++ {
		recs = append(recs, [2][]byte{[]byte("key-020"), []byte(fmt.Sprintf("one-long-group-%04d", i))})
	}
	store := NewMemRunStore()
	out := spillAll(t, store, "t/", 1, 4096, recs)
	want := sortedCopy(recs)
	for _, win := range []int{1, 2, 3, 7, 64, 1000, windowBytes} {
		for _, fanIn := range []int{2, 16} {
			it, _, err := Merge(streamOnlyStore{store}, out.Parts[0], MergeOptions{FanIn: fanIn, TmpPrefix: "t/reduce/", window: win})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, it)
			if largest := largestWindow(it); win < 3000 && largest > 3100 {
				t.Errorf("window=%d: a window of %d bytes for records of at most 3020", win, largest)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if !equalRecs(got, want) {
				t.Errorf("window=%d fanIn=%d: merged stream differs from the sorted input", win, fanIn)
			}
		}
	}
	if store.Objects() != int(out.Spills) {
		t.Errorf("%d objects left of %d spills", store.Objects(), out.Spills)
	}
}

// largestWindow returns the size of the largest window that an iterator,
// its streams and the given ones hold.
func largestWindow(it *Iterator, streams ...*segStream) int {
	largest := 0
	for _, buf := range it.free {
		largest = max(largest, cap(buf))
	}
	for _, w := range it.retired {
		largest = max(largest, cap(w.buf))
	}
	for _, st := range append(streams, it.h...) {
		if st.src != nil {
			largest = max(largest, cap(st.win))
		}
	}
	return largest
}

// FuzzSegmentStream reads an arbitrary range of arbitrary bytes as a
// segment through windows of a fuzzed size. Whatever the bytes, the
// stream yields records or an error: it never panics, never yields more
// framed bytes than the segment's range holds, and never holds a window
// larger than that range or the window size. Read through windows, the
// segment must agree, record for record and in whether it fails, with
// the same segment parsed where it lies.
func FuzzSegmentStream(f *testing.F) {
	frames := AppendFrame(AppendFrame(AppendFrame(nil, []byte("a"), []byte("1")), []byte("bb"), nil), nil, bytes.Repeat([]byte{'v'}, 40))
	n := int64(len(frames))
	f.Add(frames, int64(0), n, 5)
	f.Add(append([]byte("skip"), frames...), int64(4), n, 1)
	f.Add(frames, int64(0), n-1, 3)
	f.Fuzz(func(t *testing.T, data []byte, off, length int64, win int) {
		if win < 1 || win > 1<<16 {
			return
		}
		store := NewMemRunStore()
		store.objs["o"] = data
		seg := Segment{Name: "o", Offset: off, Bytes: length}

		read := func(s RunStore) (recs [][2][]byte, err error) {
			it := &Iterator{store: s, win: win}
			st, err := openSegStream(s, seg, 0)
			if err != nil {
				return nil, err
			}
			defer st.close()
			var framed int64
			for {
				ok, err := st.advance(it)
				if largest := largestWindow(it, st); int64(largest) > max(length, int64(win)) {
					t.Fatalf("a window of %d bytes for a segment of %d", largest, length)
				}
				if err != nil || !ok {
					return recs, err
				}
				if framed += FramedSize(st.key, st.value); framed > length {
					t.Fatalf("%d framed bytes out of a segment of %d", framed, length)
				}
				recs = append(recs, [2][]byte{bytes.Clone(st.key), bytes.Clone(st.value)})
			}
		}
		windowed, werr := read(streamOnlyStore{store})
		inPlace, perr := read(store)
		if (werr == nil) != (perr == nil) || !equalRecs(windowed, inPlace) {
			t.Errorf("through windows of %d: %d records, err %v; in place: %d records, err %v",
				win, len(windowed), werr, len(inPlace), perr)
		}
	})
}
