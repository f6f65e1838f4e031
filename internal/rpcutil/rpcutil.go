// Package rpcutil provides the transport plumbing shared by every TCP
// endpoint in the repo, three pieces:
//
// Dialing (Dial, DialRPC, Policy): the bounded retry with exponential
// backoff and jitter used by the aug_proc client, the distributed
// master/worker clients, and the worker-to-worker shuffle fetchers. A
// single dial attempt against a service that is still binding its
// listener (worker processes racing the master at startup, or a
// loopback accept queue momentarily full) fails spuriously; the fix is
// the same everywhere, so it lives here once. The netfaults hooks
// inject partitions into every dial and established connection, which
// is how the chaos suite severs links without touching the kernel.
//
// Serving (ServeHTTP, HTTPConfig): the HTTP harness behind the obsv
// admin servers (master and worker /metrics, /status, /healthz, pprof)
// and the flow service's JSON API — listener binding, connection
// tracking and graceful shutdown in one place. RPC endpoints use
// net/rpc directly; only the HTTP surfaces share this harness.
//
// Wire (Message, Owner, Bulky, NewClientCodec/NewServerCodec, Reader,
// Append*, GetBuf, PutBuf): the frame codec every RPC connection speaks,
// the cursor every hand-framed message is written and read with, and the
// message-buffer pool behind both (DESIGN.md §13). Message heads are
// encoded into and decoded out of pooled buffers; bulk fields are copied
// once per hop, written from their owner's buffer and read into a buffer
// the decoded message keeps.
package rpcutil

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// nopLogger mirrors obsv.Nop without importing obsv: rpcutil sits below
// the observability layer (obsv's admin server is built on this
// package's HTTP harness), so the dependency must point obsv → rpcutil.
var nopLogger = slog.New(nopHandler{})

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// orLog returns l, or the shared no-op logger when l is nil.
func orLog(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// Policy bounds a retried dial. Zero fields take the defaults noted
// beside each.
type Policy struct {
	// Attempts is the maximum number of dial attempts (default 5).
	Attempts int
	// BaseDelay is the sleep after the first failed attempt; each
	// subsequent failure doubles it up to MaxDelay (defaults 20ms/500ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DialTimeout bounds each individual connection attempt (default 2s).
	DialTimeout time.Duration
	// Logger receives a warning per failed attempt that will be retried
	// (nil: silent). Expected startup races thus leave a visible record
	// instead of being swallowed by the eventual success.
	Logger *slog.Logger
}

func (p *Policy) applyDefaults() {
	if p.Attempts <= 0 {
		p.Attempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 20 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = 2 * time.Second
	}
}

// jitter is the shared randomness behind backoff jitter. Determinism is
// not wanted here: two workers backing off after colliding should not
// stay in lock-step.
var (
	jitterMu sync.Mutex
	jitterRN = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Jitter returns a uniformly random duration in [0, d). It is exported
// for callers that add spacing outside a dial (heartbeat staggering).
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return time.Duration(jitterRN.Int63n(int64(d)))
}

// backoff returns the sleep before retry attempt i (0-based), with up to
// half the step added as jitter.
func (p *Policy) backoff(i int) time.Duration {
	d := p.BaseDelay
	for ; i > 0 && d < p.MaxDelay; i-- {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d + Jitter(d/2)
}

// Dial connects to a TCP address with retry/backoff/jitter.
func Dial(addr string, policy Policy) (net.Conn, error) {
	policy.applyDefaults()
	log := orLog(policy.Logger)
	faults := netFaults.Load()
	var lastErr error
	for attempt := 0; attempt < policy.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(policy.backoff(attempt - 1))
		}
		// Injected partition: fails like a dead host, and is re-checked
		// each attempt so a partition that heals mid-dial recovers.
		if faults.Partitioned(addr) {
			lastErr = fmt.Errorf("rpcutil: injected partition toward %s", addr)
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, policy.DialTimeout)
		if err == nil {
			if faults != nil {
				return &faultConn{Conn: conn, addr: addr}, nil
			}
			return conn, nil
		}
		lastErr = err
		if attempt < policy.Attempts-1 {
			log.Warn("dial failed, retrying",
				"addr", addr, "attempt", attempt+1, "of", policy.Attempts, "err", err)
		}
	}
	return nil, fmt.Errorf("rpcutil: dial %s failed after %d attempts: %w",
		addr, policy.Attempts, lastErr)
}

// DialRPC connects a net/rpc client to a TCP address with
// retry/backoff/jitter. The connection speaks the frame codec
// (codec.go), so the server side must serve with NewServerCodec.
func DialRPC(addr string, policy Policy) (*rpc.Client, error) {
	conn, err := Dial(addr, policy)
	if err != nil {
		return nil, err
	}
	return rpc.NewClientWithCodec(NewClientCodec(conn)), nil
}
