package rpcutil

import (
	"sync"
	"sync/atomic"
)

// This file is the shared message-buffer pool behind every hand-rolled
// wire codec in the repo (DESIGN.md §13). Encoding a task descriptor,
// heartbeat or task result into a fresh []byte per message made the
// distributed backend's steady-state hot path allocate on every RPC; the
// pool recycles those buffers so the encode path amortizes to zero
// allocations. Buffers are handed out as *[]byte (the sync.Pool idiom
// that avoids an allocation per Put), keep whatever capacity their
// previous use grew them to, and are truncated by the caller with
// (*buf)[:0] before appending.

// bufPool recycles wire-encode buffers. The New hint matches a typical
// task descriptor; large results grow their buffer once and keep the
// capacity for the next message of that size class.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// GetBuf returns a pooled byte buffer for wire encoding. The slice has
// length zero and non-zero capacity; append to it and hand the encoded
// message to the transport, then return it with PutBuf once the
// transport no longer references it (for net/rpc, after the Call
// completes).
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool. The caller
// must not touch the slice afterwards. Oversized buffers (beyond 1 MiB)
// are dropped instead of pooled so one huge reduce output does not pin
// its footprint forever.
func PutBuf(b *[]byte) {
	if b != nil && poison.Load() {
		p := (*b)[:cap(*b)]
		for i := range p {
			p[i] = 0xDB
		}
	}
	if b == nil || cap(*b) > 1<<20 {
		return
	}
	bufPool.Put(b)
}

var poison atomic.Bool

// PoisonPooled is a test hook: on, PutBuf overwrites every buffer it
// takes back with 0xDB, so a decoder that kept a pooled slice fails fast.
func PoisonPooled(on bool) { poison.Store(on) }
