package pregel

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"ffmr/internal/graph"
	"ffmr/internal/trace"
)

// Vertex is one vertex's engine-side state.
type Vertex struct {
	ID graph.VertexID
	// Value is the vertex's opaque state, owned by the user program.
	Value []byte
}

// Context is handed to Program.Compute. Each worker reuses one Context
// for every vertex of every superstep, so a program must not keep the
// pointer past the Compute call it was passed to.
type Context struct {
	superstep int
	engine    *Engine
	worker    *worker
	halt      bool
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// SendTo sends a message to another vertex, delivered next superstep.
// The engine copies msg; callers may reuse the buffer. A message to an
// ID the engine has no vertex for is dropped at delivery and counted in
// Stats.Undelivered.
func (c *Context) SendTo(dst graph.VertexID, msg []byte) {
	c.worker.send(dst, msg)
}

// VoteToHalt deactivates the vertex until a message arrives for it.
func (c *Context) VoteToHalt() { c.halt = true }

// Aggregate adds delta to a named int64 sum aggregator; the aggregated
// value becomes visible through Aggregated in the next superstep.
func (c *Context) Aggregate(name string, delta int64) {
	c.worker.aggregates[name] += delta
}

// Aggregated returns a named aggregator's value from the previous
// superstep (0 if never aggregated).
func (c *Context) Aggregated(name string) int64 { return c.engine.prevAggregates[name] }

// Collect submits an opaque item to the master collector, processed by
// the MasterCompute hook after this superstep. The item is copied.
func (c *Context) Collect(item []byte) {
	c.worker.collected = append(c.worker.collected, append([]byte(nil), item...))
}

// Global returns the side data published by the previous superstep's
// MasterCompute (nil in superstep 0).
func (c *Context) Global() []byte { return c.engine.global }

// Stats summarizes one engine run.
type Stats struct {
	// Supersteps executed (the BSP analogue of MR rounds).
	Supersteps int
	// Messages and MessageBytes count all vertex-to-vertex traffic, the
	// analogue of the MR shuffle volume.
	Messages     int64
	MessageBytes int64
	// Undelivered counts the messages (included in Messages) that were
	// addressed to an ID the engine has no vertex for, and dropped.
	Undelivered int64
	// ActiveVertices per superstep: the number of Compute calls, the
	// run's parallelism profile and, with the messages, its cost.
	ActiveVertices []int64
	WallTime       time.Duration
}

// Config parameterizes an engine.
type Config struct {
	// Workers is the number of partitions executed concurrently
	// (defaults to 8).
	Workers int
	// MaxSupersteps aborts a non-converging computation (default 10000).
	MaxSupersteps int
	// Master is the optional between-superstep hook.
	Master MasterCompute
	// Tracer, if non-nil, records one span per superstep annotated with
	// active-vertex and message-volume counts. TraceParent optionally
	// nests the superstep spans under a caller-owned span.
	Tracer      *trace.Tracer
	TraceParent *trace.Span
}

// outbox is what one worker sent in one superstep: one arena holding
// every message body, and per destination worker the messages' places
// in it. A worker owns two, written in alternate supersteps, so the one
// written in superstep s is read-only while its receivers consume it in
// s+1 and is truncated for reuse in s+2.
type outbox struct {
	buf  []byte
	refs [][]msgRef
}

type msgRef struct {
	dst    graph.VertexID
	off, n int
}

type msg struct {
	dst  graph.VertexID
	data []byte // a window of the sender's arena
}

// msgGroup is the run inbox[lo:hi] addressed to vertices[idx].
type msgGroup struct{ idx, lo, hi int }

// worker owns a partition of vertices. Everything below vertices is
// scratch that keeps its capacity from superstep to superstep.
type worker struct {
	vertices []*Vertex // sorted by ID
	// active holds the indices into vertices, ascending, of the
	// vertices that have not voted to halt; spare is last superstep's
	// list, recycled as the next one.
	active, spare []int
	out           [2]outbox
	inbox         []msg      // this superstep's messages, sorted by (dst, data)
	bodies        [][]byte   // inbox[i].data; Compute's messages are windows of it
	groups        []msgGroup // inbox grouped by destination, unknown IDs dropped
	ctx           Context

	aggregates  map[string]int64
	collected   [][]byte
	computed    int64
	msgCount    int64
	msgBytes    int64
	undelivered int64
}

func (w *worker) send(dst graph.VertexID, data []byte) {
	o := &w.out[w.ctx.superstep&1]
	p := int(dst) % len(o.refs)
	o.refs[p] = append(o.refs[p], msgRef{dst: dst, off: len(o.buf), n: len(data)})
	o.buf = append(o.buf, data...)
	w.msgCount++
	w.msgBytes += int64(len(data))
}

// Engine executes a Program over a vertex set.
type Engine struct {
	cfg     Config
	workers []*worker
	index   map[graph.VertexID]*Vertex

	prevAggregates map[string]int64
	global         []byte
}

// NewEngine creates an engine over the given vertices. Vertex IDs must
// be unique.
func NewEngine(cfg Config, vertices []*Vertex) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 10000
	}
	e := &Engine{
		cfg:            cfg,
		index:          make(map[graph.VertexID]*Vertex, len(vertices)),
		prevAggregates: map[string]int64{},
	}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		w := &worker{aggregates: map[string]int64{}}
		w.ctx = Context{engine: e, worker: w}
		for g := range w.out {
			w.out[g].refs = make([][]msgRef, cfg.Workers)
		}
		e.workers[i] = w
	}
	for _, v := range vertices {
		if _, dup := e.index[v.ID]; dup {
			return nil, fmt.Errorf("pregel: duplicate vertex %d", v.ID)
		}
		e.index[v.ID] = v
		w := e.workers[int(v.ID)%cfg.Workers]
		w.vertices = append(w.vertices, v)
	}
	for _, w := range e.workers {
		slices.SortFunc(w.vertices, func(a, b *Vertex) int { return cmp.Compare(a.ID, b.ID) })
		for i := range w.vertices {
			w.active = append(w.active, i) // every vertex starts active
		}
	}
	return e, nil
}

// Vertex returns a vertex by ID (nil if absent). Intended for reading
// results after Run.
func (e *Engine) Vertex(id graph.VertexID) *Vertex { return e.index[id] }

// step runs worker wi's share of one superstep: gather and sort the
// mail its peers left for it, pair it with its vertices, and call
// Compute on the vertices that are active or have mail. The cost is
// O(active + messages · log vertices); halted vertices without mail are
// never looked at.
func (e *Engine) step(wi int, program Program) error {
	w := e.workers[wi]
	superstep := w.ctx.superstep

	sending := &w.out[superstep&1]
	sending.buf = sending.buf[:0]
	for p := range sending.refs {
		sending.refs[p] = sending.refs[p][:0]
	}

	w.inbox = w.inbox[:0]
	for _, peer := range e.workers {
		sent := &peer.out[(superstep+1)&1]
		for _, r := range sent.refs[wi] {
			w.inbox = append(w.inbox, msg{dst: r.dst, data: sent.buf[r.off : r.off+r.n : r.off+r.n]})
		}
	}
	// Sort for deterministic per-vertex message order regardless of
	// sender scheduling.
	slices.SortFunc(w.inbox, func(a, b msg) int {
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return bytes.Compare(a.data, b.data)
	})

	// Merge-join the sorted inbox against the ID-sorted vertices. Each
	// destination is searched for above the previous one only; an ID
	// that is not there is dropped here, so it can neither panic nor
	// land on the next vertex.
	w.bodies, w.groups = w.bodies[:0], w.groups[:0]
	from := 0
	for lo := 0; lo < len(w.inbox); {
		dst := w.inbox[lo].dst
		hi := lo
		for hi < len(w.inbox) && w.inbox[hi].dst == dst {
			w.bodies = append(w.bodies, w.inbox[hi].data)
			hi++
		}
		at, found := slices.BinarySearchFunc(w.vertices[from:], dst,
			func(v *Vertex, id graph.VertexID) int { return cmp.Compare(v.ID, id) })
		from += at
		if found {
			w.groups = append(w.groups, msgGroup{idx: from, lo: lo, hi: hi})
		} else {
			w.undelivered += int64(hi - lo)
		}
		lo = hi
	}

	// Walk the union of the active list and the mail groups in vertex
	// order; whoever does not vote to halt is next superstep's list.
	active, groups := w.active, w.groups
	next := w.spare[:0]
	for len(active) > 0 || len(groups) > 0 {
		var idx int
		var messages [][]byte
		if len(groups) > 0 && (len(active) == 0 || groups[0].idx <= active[0]) {
			g := groups[0]
			groups = groups[1:]
			idx, messages = g.idx, w.bodies[g.lo:g.hi:g.hi]
			if len(active) > 0 && active[0] == idx {
				active = active[1:]
			}
		} else {
			idx, active = active[0], active[1:]
		}
		v := w.vertices[idx]
		w.ctx.halt = false
		w.computed++
		if err := program.Compute(&w.ctx, v, messages); err != nil {
			return fmt.Errorf("pregel: superstep %d vertex %d: %w", superstep, v.ID, err)
		}
		if !w.ctx.halt {
			next = append(next, idx)
		}
	}
	w.active, w.spare = next, w.active
	return nil
}

// Run executes the program until quiescence and returns run statistics.
func (e *Engine) Run(program Program) (*Stats, error) {
	start := time.Now()
	stats := &Stats{}
	errs := make([]error, len(e.workers))

	for superstep := 0; superstep < e.cfg.MaxSupersteps; superstep++ {
		var stepSpan *trace.Span
		if e.cfg.Tracer != nil {
			stepSpan = e.cfg.Tracer.Start(trace.CatRound, fmt.Sprintf("superstep-%05d", superstep), e.cfg.TraceParent)
			stepSpan.SetInt(trace.AttrRound, int64(superstep))
		}
		var wg sync.WaitGroup
		for wi, w := range e.workers {
			w.ctx.superstep = superstep
			wg.Add(1)
			go func(wi int, w *worker) {
				defer wg.Done()
				errs[wi] = e.step(wi, program)
			}(wi, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				stepSpan.SetStr("error", err.Error())
				stepSpan.End()
				return nil, err
			}
		}

		// Barrier bookkeeping: aggregates, collector, message counts.
		aggregates := map[string]int64{}
		var collected [][]byte
		var active, awake, stepMsgs, stepMsgBytes int64
		for _, w := range e.workers {
			for name, v := range w.aggregates {
				aggregates[name] += v
			}
			clear(w.aggregates)
			collected = append(collected, w.collected...)
			w.collected = w.collected[:0]
			active += w.computed
			awake += int64(len(w.active))
			stepMsgs += w.msgCount
			stepMsgBytes += w.msgBytes
			stats.Undelivered += w.undelivered
			w.computed, w.msgCount, w.msgBytes, w.undelivered = 0, 0, 0, 0
		}
		stats.Supersteps = superstep + 1
		stats.ActiveVertices = append(stats.ActiveVertices, active)
		stats.Messages += stepMsgs
		stats.MessageBytes += stepMsgBytes
		// Deterministic master input order.
		slices.SortFunc(collected, bytes.Compare)
		e.prevAggregates = aggregates

		if e.cfg.Master != nil {
			global, err := e.cfg.Master(superstep, collected, aggregates)
			if err != nil {
				err = fmt.Errorf("pregel: master compute at superstep %d: %w", superstep, err)
				stepSpan.SetStr("error", err.Error())
				stepSpan.End()
				return nil, err
			}
			e.global = global
		}

		stepSpan.SetInt(trace.AttrActiveVertices, active)
		stepSpan.SetInt("messages", stepMsgs)
		stepSpan.SetInt("message_bytes", stepMsgBytes)
		stepSpan.SetInt("pending", stepMsgs)
		stepSpan.End()

		// Quiescence: nothing in flight, nobody awake.
		if stepMsgs == 0 && awake == 0 {
			stats.WallTime = time.Since(start)
			return stats, nil
		}
	}
	return nil, fmt.Errorf("pregel: no convergence within %d supersteps", e.cfg.MaxSupersteps)
}
