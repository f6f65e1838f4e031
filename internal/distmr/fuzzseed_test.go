package distmr

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzSeedsCarryWireVersion decodes every checked-in seed of the
// version-prefixed message fuzzers. A seed whose first byte is not
// wireVersion is rejected there and exercises nothing past it, so a
// wireVersion bump must re-encode the corpus along with the encoders.
func TestFuzzSeedsCarryWireVersion(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"FuzzDecodeTask":      func(b []byte) error { _, err := DecodeTask(b); return err },
		"FuzzDecodeResult":    func(b []byte) error { _, err := DecodeResult(b); return err },
		"FuzzDecodeHeartbeat": func(b []byte) error { _, err := DecodeHeartbeat(b); return err },
	}
	for fuzzer, decode := range decoders {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("%s: no checked-in seeds", fuzzer)
		}
		for _, f := range files {
			data := readFuzzSeed(t, f)
			if len(data) == 0 || data[0] != wireVersion {
				t.Errorf("%s: seed starts with version %v, want %d", f, data[:min(len(data), 1)], wireVersion)
				continue
			}
			if err := decode(data); err != nil && strings.Contains(err.Error(), "wire version") {
				t.Errorf("%s: rejected at the version byte: %v", f, err)
			}
		}
	}
}

// readFuzzSeed parses a one-value "go test fuzz v1" corpus file holding
// a []byte.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s: not a one-[]byte fuzz corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
