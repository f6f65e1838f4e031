package distmr

import (
	"os"
	"testing"

	"ffmr/internal/rpcutil"
)

// TestMain runs the package with rpcutil's pooled frame buffers poisoned
// as they are returned, so every harness run here also proves that no
// decoder keeps a slice of a pooled frame.
func TestMain(m *testing.M) {
	rpcutil.PoisonPooled(true)
	os.Exit(m.Run())
}
