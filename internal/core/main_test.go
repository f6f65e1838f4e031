package core

import (
	"os"
	"testing"

	"ffmr/internal/rpcutil"
)

// TestMain runs the package with rpcutil's pooled frame buffers poisoned
// as they are returned, so every distributed and aug_proc run here also
// proves that no decoder keeps a slice of a pooled frame: one that did
// would read 0xDB where its bytes were, and its run would fail.
func TestMain(m *testing.M) {
	rpcutil.PoisonPooled(true)
	os.Exit(m.Run())
}
