package spill

import "testing"

// PoisonRecycledWindows makes every merge overwrite a window with 0xDB
// the moment it recycles it, until the test ends.
func PoisonRecycledWindows(t *testing.T) {
	poisonRecycled = true
	t.Cleanup(func() { poisonRecycled = false })
}

// WindowBytes is the merge's window size.
const WindowBytes = windowBytes
