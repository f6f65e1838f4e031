package dfstest

import (
	"strings"
	"testing"

	"ffmr/internal/dfs"
)

// guardedFS returns an FS over a guarded MemStore and the reports it made.
func guardedFS(cfg dfs.Config) (*dfs.FS, *[]error) {
	var reports []error
	return dfs.NewWithStore(cfg, newGuard(dfs.NewMemStore(), func(err error) { reports = append(reports, err) })), &reports
}

// TestGuardNamesTheChangedFile breaks each rule once — a buffer reused
// after WriteFile, a ReadFile view written into — and requires the guard
// to report the file by name at the next Get, Delete or Close.
func TestGuardNamesTheChangedFile(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, fs *dfs.FS, file string, buf []byte)
		find   func(fs *dfs.FS, file string)
	}{
		{"reused after WriteFile, found at Get", func(t *testing.T, fs *dfs.FS, file string, buf []byte) {
			buf[0] ^= 0xff
		}, func(fs *dfs.FS, file string) { fs.ReadFile(file) }},
		{"reused after WriteFile, found at Delete", func(t *testing.T, fs *dfs.FS, file string, buf []byte) {
			buf[len(buf)-1] ^= 0xff
		}, func(fs *dfs.FS, file string) { fs.Delete(file) }},
		{"ReadFile view written into, found at Close", func(t *testing.T, fs *dfs.FS, file string, _ []byte) {
			view, err := fs.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			view[3] = 'X'
		}, func(fs *dfs.FS, file string) { fs.Close() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, reports := guardedFS(dfs.Config{Nodes: 2, BlockSize: 64, Replication: 2})
			const file = "ffmr/round-00002/part-00001"
			buf := []byte("vertex records of one partition")
			if err := fs.WriteFile(file, buf); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("ffmr/round-00002/part-00000", []byte("untouched")); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, fs, file, buf)
			tc.find(fs, file)
			if len(*reports) != 1 || !strings.Contains((*reports)[0].Error(), file) {
				t.Fatalf("reports %v, want one naming %q", *reports, file)
			}
		})
	}
}

// TestGuardQuietOnAnHonestCaller: writing, reading, overwriting and
// deleting without touching stored bytes reports nothing.
func TestGuardQuietOnAnHonestCaller(t *testing.T) {
	fs, reports := guardedFS(dfs.Config{Nodes: 3, BlockSize: 8, Replication: 2})
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile("f", []byte(strings.Repeat("ab", 5+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	fs.Delete("f")
	if err := fs.WriteFile("g", []byte("kept until Close")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(*reports) != 0 {
		t.Fatalf("honest caller reported: %v", *reports)
	}
}
