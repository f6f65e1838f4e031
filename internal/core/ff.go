package core

import (
	"fmt"
	"sync"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// runConfig is the per-round configuration shared by all of a job's
// mapper and reducer instances in one process. Only the round's deltas
// table is filled in after construction, once, by the first task to need
// it.
type runConfig struct {
	opts       Options
	feat       features
	source     graph.VertexID
	sink       graph.VertexID
	deltasFile string

	deltasOnce sync.Once
	deltas     *deltaSet
	deltasErr  error
}

// deltaSet returns the round's AugmentedEdges table. The first task of the
// job to ask decodes the side file and builds the filter; every later task
// shares the result, which nothing writes.
func (c *runConfig) deltaSet(ctx *mapreduce.TaskContext) (*deltaSet, error) {
	c.deltasOnce.Do(func() {
		m, err := DecodeDeltas(ctx.SideFile(c.deltasFile))
		if err != nil {
			c.deltasErr = err
			return
		}
		c.deltas = newDeltaSet(m)
	})
	return c.deltas, c.deltasErr
}

func (c *runConfig) pathLimit(v *graph.VertexValue) int {
	if c.feat.sentTracking {
		// FF5: k is the vertex's (in-)degree, guaranteeing a receiving
		// vertex always has room for an incoming extension.
		if k := len(v.Eu); k > 0 {
			return k
		}
		return 1
	}
	return c.opts.K
}

func (c *runConfig) extendConfig() extendConfig {
	return extendConfig{source: c.source, sink: c.sink, sentTracking: c.feat.sentTracking}
}

// candidateSink receives the candidate augmenting paths an FF2+ reduce task
// generates, a batch at a time. *AugProcClient is the one production
// implementation; it has written the batch to its connection by the time
// send returns.
type candidateSink interface {
	send(round, task, exec int, sb *submitBuf) error
}

// FF4 (Section IV-C) eliminates object instantiations: a mapper or reducer
// builds every record in scratch it keeps for the whole task, so that once
// the scratch is warm nothing on the path from the bytes of a shuffle group
// to the bytes of the reduce output allocates. The scratch belongs to the
// process, not to the task: a task takes it from a pool (mapScratchPool,
// reduceScratchPool, and submitPool for the candidate batch) on first use
// and puts it back in Close, so the next task starts warm. A failed attempt
// is never closed and drops its scratch to the GC; nothing can put back
// scratch an attempt still uses. There is one MAP body and one REDUCE body
// for all variants; feat.reuseObjects only decides whether the scratch
// survives from one record to the next. The earlier variants drop it after
// every use and so keep allocating a fresh value, path and buffer per
// record, which is the churn FF4 removes.
//
// Nothing in the scratch is referenced by what a call leaves behind:
// TaskContext.Emit copies the bytes it is given and submitBuf.add encodes
// the paths it is given before returning. Inside the scratch every path
// slot owns its Edges array exclusively (graph.NextSlot, removeSaturated),
// so filling one slot can never disturb a path held in another.

// ffMapper implements the MAP function of Fig. 3 for all variants.
type ffMapper struct {
	cfg    *runConfig
	extcfg extendConfig
	s      *mapScratch // nil until the first record that decodes
	fresh  mapScratch  // FF1–FF3: s, zeroed for every record
}

// mapScratch is what Map builds one record's emissions in.
type mapScratch struct {
	val   graph.VertexValue  // the decoded master record
	frag  fragment           // the fragment being emitted
	cands []graph.ExcessPath // FF1: candidate augmenting paths
	local Accumulator        // FF1: generateCandidates' filter
	key   []byte             // encoded destination key
	buf   []byte             // encoded value
	sigs  []uint64           // updateVertex's scratch
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

func newFFMapper(cfg *runConfig) mapreduce.Mapper {
	return &ffMapper{cfg: cfg, extcfg: cfg.extendConfig()}
}

// emit encodes v and emits it to vertex to: into the scratch buffers, or
// before FF4 into a fresh key, value and (for the next call) fragment.
func (m *ffMapper) emit(ctx *mapreduce.TaskContext, to graph.VertexID, v *graph.VertexValue) {
	s := m.s
	if !m.cfg.feat.reuseObjects {
		ctx.Emit(graph.KeyBytes(to), graph.EncodeValue(v))
		s.frag = fragment{}
		return
	}
	s.key = graph.AppendKey(s.key[:0], to)
	s.buf = graph.AppendValue(s.buf[:0], v)
	ctx.Emit(s.key, s.buf)
}

func (m *ffMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	u, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	// A master holding no excess path emits nothing under schimmy: it has
	// nothing to extend, candidates are the reducer's from FF2 on, and the
	// reducer, not the shuffle, brings it to its group. Its bytes are this
	// round's schimmy base, which the reducer decodes in full, so skipping
	// them here skips no check. A record without edges takes the full path
	// and fails below.
	if m.cfg.feat.schimmy && graph.IsQuietMaster(value) {
		return nil
	}
	if !m.cfg.feat.reuseObjects {
		m.fresh = mapScratch{}
		m.s = &m.fresh
	} else if m.s == nil {
		m.s = mapScratchPool.Get().(*mapScratch)
		// extendVertex only ever sets a fragment's paths.
		m.s.frag.Value.Reset()
	}
	s := m.s
	val := &s.val
	if err := graph.DecodeValueInto(value, val); err != nil {
		return err
	}
	if !val.IsMaster() {
		return fmt.Errorf("core: mapper got a non-master record for vertex %d", u)
	}

	deltas, err := m.cfg.deltaSet(ctx)
	if err != nil {
		return err
	}

	// Update All Edge Flows (MAP lines 1-4).
	updateVertex(val, deltas, &s.sigs)

	// Generate Augmenting Paths (MAP lines 5-8). Only FF1 does this in
	// the map phase; FF2+ moved generation into the previous reduce.
	if !m.cfg.feat.augProc {
		s.cands = generateCandidates(val, s.cands[:0], &s.local)
		for i := range s.cands {
			frag := graph.VertexValue{Su: s.cands[i : i+1]}
			m.emit(ctx, m.cfg.sink, &frag)
		}
	}

	// Extending Excess Paths (MAP lines 9-16).
	extendVertex(u, val, &m.extcfg, &s.frag, func(f *fragment) {
		m.emit(ctx, f.To, &f.Value)
	})

	// Emit the master vertex (MAP line 17) — suppressed by the schimmy
	// pattern from FF3 on.
	if !m.cfg.feat.schimmy {
		m.emit(ctx, u, val)
	}
	return nil
}

// Close implements mapreduce.TaskCloser: the scratch goes back to the pool
// for the process's next map task.
func (m *ffMapper) Close(*mapreduce.TaskContext) error {
	if m.s != nil && m.cfg.feat.reuseObjects {
		mapScratchPool.Put(m.s)
	}
	m.s = nil
	return nil
}

// ffReducer implements the REDUCE function of Fig. 4 for all variants.
type ffReducer struct {
	cfg    *runConfig
	extcfg extendConfig
	s      *reduceScratch // nil until the first group
	fresh  reduceScratch  // FF1–FF3: s, zeroed for every group
	// batch holds, encoded, the candidates of the task's groups so far that
	// have not been sent to aug_proc (FF2+); nil until the first one. It is
	// the task's, not the group's: FF2 and FF3 drop s after every group and
	// still keep it.
	batch *submitBuf
}

// reduceScratch is what Reduce builds one group's output in. It grows to
// the largest group any task of the process has seen and no further.
type reduceScratch struct {
	// vals is the slab of decoded values: the i-th value of every group is
	// decoded into vals[i]. A schimmy master is decoded into master, so a
	// hub's adjacency grows one array, not whichever slot its fragment
	// count picks.
	vals   []*graph.VertexValue
	used   int
	master graph.VertexValue

	out          graph.VertexValue // the merged record
	seenS, seenT map[uint64]bool   // signatures of the paths kept in out
	as, at       Accumulator       // conflict filters of out.Su and out.Tu
	ap           Accumulator       // FF1: the sink's final acceptance
	local        Accumulator       // generateCandidates' filter
	cands        []graph.ExcessPath
	buf          []byte   // encoded out
	sigs         []uint64 // updateVertex's scratch
}

var reduceScratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

// value returns the next free slot of the slab.
func (s *reduceScratch) value() *graph.VertexValue {
	if s.used == len(s.vals) {
		s.vals = append(s.vals, new(graph.VertexValue))
	}
	s.used++
	return s.vals[s.used-1]
}

// reset empties the scratch for the next group, keeping its storage.
func (s *reduceScratch) reset() {
	s.used = 0
	s.out.Reset()
	// Clearing a map costs its capacity even when it is empty, and a hub's
	// group leaves the maps large for the rest of the task.
	if len(s.seenS) > 0 {
		clear(s.seenS)
	}
	if len(s.seenT) > 0 {
		clear(s.seenT)
	}
	s.as.Reset()
	s.at.Reset()
	s.ap.Reset()
	s.cands = s.cands[:0]
}

func newFFReducer(cfg *runConfig) mapreduce.Reducer {
	return &ffReducer{cfg: cfg, extcfg: cfg.extendConfig()}
}

func (r *ffReducer) Reduce(ctx *mapreduce.TaskContext, key, master []byte, values *mapreduce.Values) error {
	u, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	isSink := u == r.cfg.sink

	if !r.cfg.feat.reuseObjects {
		r.fresh = reduceScratch{}
		r.s = &r.fresh
	} else {
		if r.s == nil {
			r.s = reduceScratchPool.Get().(*reduceScratch)
		}
		r.s.reset()
	}
	s := r.s
	out := &s.out

	// Buffer the shuffled fragments. With schimmy the master arrives via
	// the base partition; otherwise it is one of the shuffled values,
	// distinguished by having edges (Fig. 4 line 4).
	var masterVal *graph.VertexValue
	for {
		vb := values.Next()
		if vb == nil {
			break
		}
		v := s.value()
		if err := graph.DecodeValueInto(vb, v); err != nil {
			return err
		}
		if v.IsMaster() {
			if masterVal != nil {
				return fmt.Errorf("core: vertex %d has two master records", u)
			}
			masterVal = v
		}
	}

	if r.cfg.feat.schimmy {
		if master == nil {
			return fmt.Errorf("core: vertex %d missing from schimmy base", u)
		}
		masterVal = &s.master
		if err := graph.DecodeValueInto(master, masterVal); err != nil {
			return err
		}
	}
	if masterVal == nil {
		return fmt.Errorf("core: vertex %d received fragments but no master record", u)
	}
	k := r.cfg.pathLimit(masterVal)
	if s.seenS == nil {
		s.seenS = make(map[uint64]bool, k)
	}
	if s.seenT == nil {
		s.seenT = make(map[uint64]bool, k)
	}

	if r.cfg.feat.schimmy {
		deltas, err := r.cfg.deltaSet(ctx)
		if err != nil {
			return err
		}
		if values.Len() == 0 && unchanged(masterVal, deltas) {
			// Nothing below would move a byte of this record or a counter:
			// it holds no path to update, extend, merge or pair, no sent
			// flag to clear and no edge with a delta, and it received no
			// fragment. Stored records are canonical (graph.AppendValue
			// writes every one: this reducer, WriteEngineState, which
			// writes round #0, and the dynamic-update jobs), so re-encoding
			// it would reproduce master exactly.
			ctx.Emit(key, master)
			return nil
		}
		// Recompute the mapper's master-side state transition: apply the
		// round's deltas, drop saturated paths, and replay the extension
		// pass to reproduce the FF5 sent-flag updates. extendVertex is
		// deterministic in (value, deltas), so this reproduces exactly
		// what the mapper computed and did not ship.
		updateVertex(masterVal, deltas, &s.sigs)
		extendVertex(u, masterVal, &r.extcfg, nil, nil)
	}

	out.Eu = append(out.Eu, masterVal.Eu...)
	out.SentS = append(out.SentS, masterVal.SentS...)
	out.SentT = append(out.SentT, masterVal.SentT...)

	sm, tm := len(masterVal.Su), len(masterVal.Tu)
	var ff1Stats AugProcStats

	// keep appends a copy of p to paths in the next slot of their array.
	keep := func(paths []graph.ExcessPath, p *graph.ExcessPath) []graph.ExcessPath {
		paths, slot := graph.NextSlot(paths)
		slot.Set(p)
		return paths
	}
	mergeSource := func(se *graph.ExcessPath) {
		if isSink {
			// Fig. 4 line 6: at the sink every incoming source excess
			// path is a candidate augmenting path.
			if r.cfg.feat.augProc {
				s.cands = keep(s.cands, se)
			} else {
				ff1Stats.Submitted++
				if d := s.ap.Accept(se, graph.CapInf); d > 0 {
					ff1Stats.Accepted++
					ff1Stats.TotalDelta += d
				}
			}
			return
		}
		sig := se.Signature()
		if s.seenS[sig] || len(out.Su) >= k {
			return
		}
		// The empty seed path at the source must always survive.
		if se.Len() == 0 || s.as.Accept(se, 1) > 0 {
			s.seenS[sig] = true
			out.Su = keep(out.Su, se)
		}
	}
	mergeSink := func(te *graph.ExcessPath) {
		sig := te.Signature()
		if s.seenT[sig] || len(out.Tu) >= k {
			return
		}
		if te.Len() == 0 || s.at.Accept(te, 1) > 0 {
			s.seenT[sig] = true
			out.Tu = keep(out.Tu, te)
		}
	}

	// The master's surviving paths merge first so established paths are
	// not evicted by new arrivals; fragments follow in the engine's
	// deterministic sorted order (Fig. 4 lines 3-9).
	for i := range masterVal.Su {
		mergeSource(&masterVal.Su[i])
	}
	for i := range masterVal.Tu {
		mergeSink(&masterVal.Tu[i])
	}
	baseS, baseT := len(out.Su), len(out.Tu)
	for _, f := range s.vals[:s.used] {
		if f.IsMaster() {
			continue
		}
		for i := range f.Su {
			mergeSource(&f.Su[i])
		}
		for i := range f.Tu {
			mergeSink(&f.Tu[i])
		}
	}

	// Movement counters (Fig. 4 lines 10-11) drive termination.
	if sm == 0 && len(out.Su) > 0 {
		ctx.Inc("source move", 1)
	}
	if tm == 0 && len(out.Tu) > 0 {
		ctx.Inc("sink move", 1)
	}
	// Path-addition counters drive the warm-restart stall check: a warm
	// start leaves most vertices already holding paths, so movement
	// counters (0 -> nonzero transitions) are blind to progress that only
	// grows existing path sets. A round in which no vertex adds any path
	// and nothing is accepted is a fixpoint.
	if d := len(out.Su) - baseS; d > 0 {
		ctx.Inc("source paths added", int64(d))
	}
	if d := len(out.Tu) - baseT; d > 0 {
		ctx.Inc("sink paths added", int64(d))
	}
	// Active vertices — the paper's available-parallelism measure
	// (Section III-B: "we want the number of active vertices ... to be
	// large compared to the available computing resources").
	if len(out.Su) > 0 || len(out.Tu) > 0 {
		ctx.Inc("active vertices", 1)
	}

	// FF2+: generate candidate augmenting paths here, from the post-merge
	// state (Section IV-A), and put them with the task's batch, which goes
	// to aug_proc over the persistent connection when the task closes. The
	// batch holds them encoded, so the next group may overwrite the slab.
	if r.cfg.feat.augProc {
		s.cands = generateCandidates(out, s.cands, &s.local)
		if len(s.cands) > 0 {
			if r.batch == nil {
				r.batch = r.newBatch()
			}
			r.batch.add(s.cands)
			ctx.Inc("candidates sent", int64(len(s.cands)))
			if len(r.batch.enc) >= submitFlushBytes {
				if err := r.flush(ctx); err != nil {
					return err
				}
			}
		}
	} else if isSink {
		// FF1: the sink reducer finalizes acceptance and publishes the
		// round's AugmentedEdges table (Fig. 4 lines 12-14).
		client, ok := ctx.Service().(*AugProcClient)
		if !ok {
			return fmt.Errorf("core: job service is not an aug_proc client")
		}
		if err := client.Publish(ctx.Round(), s.ap.Deltas(), ff1Stats); err != nil {
			return err
		}
	}

	if !r.cfg.feat.reuseObjects {
		ctx.Emit(key, graph.EncodeValue(out))
		return nil
	}
	s.buf = graph.AppendValue(s.buf[:0], out)
	ctx.Emit(key, s.buf)
	return nil
}

// newBatch returns an empty candidate batch: a pooled one under FF4+.
func (r *ffReducer) newBatch() *submitBuf {
	if !r.cfg.feat.reuseObjects {
		return new(submitBuf)
	}
	sb := submitPool.Get().(*submitBuf)
	sb.reset()
	return sb
}

// flush sends the candidates collected since the last send as one batch
// tagged (round, task, exec), the unit aug_proc fences and deduplicates on.
func (r *ffReducer) flush(ctx *mapreduce.TaskContext) error {
	if r.batch == nil || len(r.batch.args.Paths) == 0 {
		return nil
	}
	sink, ok := ctx.Service().(candidateSink)
	if !ok {
		return fmt.Errorf("core: job service is not an aug_proc client")
	}
	err := sink.send(ctx.Round(), ctx.Task(), ctx.Exec(), r.batch)
	r.batch.reset()
	return err
}

// Close implements mapreduce.TaskCloser: it sends the rest of the batch
// and, under FF4+, puts the scratch and the batch back in their pools for
// the process's next reduce task. An attempt that fails never gets here,
// so it submits at most what Reduce had already flushed.
func (r *ffReducer) Close(ctx *mapreduce.TaskContext) error {
	if err := r.flush(ctx); err != nil {
		return err
	}
	if r.cfg.feat.reuseObjects {
		if r.s != nil {
			reduceScratchPool.Put(r.s)
		}
		if r.batch != nil {
			submitPool.Put(r.batch)
		}
	}
	r.s, r.batch = nil, nil
	return nil
}
