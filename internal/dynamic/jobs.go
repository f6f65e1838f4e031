package dynamic

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// This file holds the two MapReduce jobs of the repair pipeline. Both
// are map-side record rewrites with an identity reducer, so their output
// is partition-aligned part files usable as a warm round's schimmy base.
// Both carry JobSpecs registered with the distributed backend, so they
// run identically on the simulated engine and on distmr workers.

// Job kind names registered with the distributed backend.
const (
	KindApplyUpdates = "dynamic/apply"
	KindDrain        = "dynamic/drain"
)

// capPair is an edge's updated capacity in both directions.
type capPair struct {
	Fwd, Rev int64
}

// insertEdge is one inserted edge with its assigned EdgeID and resolved
// directional capacities.
type insertEdge struct {
	ID       graph.EdgeID
	U, V     graph.VertexID
	Fwd, Rev int64
}

// applyParams parameterizes the apply job for reconstruction on a
// worker.
type applyParams struct {
	PendingFile  string
	Caps         map[graph.EdgeID]capPair
	Inserts      []insertEdge
	SentTracking bool
}

// drainParams parameterizes the drain job.
type drainParams struct {
	DeltasFile string
}

// append frames the params with the cursor every wire message uses
// (rpcutil); Caps go out in edge-ID order, so equal params are equal
// bytes.
func (p *applyParams) append(b []byte) []byte {
	b = rpcutil.AppendString(b, p.PendingFile)
	ids := make([]graph.EdgeID, 0, len(p.Caps))
	for id := range p.Caps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendVarint(b, p.Caps[id].Fwd)
		b = binary.AppendVarint(b, p.Caps[id].Rev)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Inserts)))
	for i := range p.Inserts {
		ins := &p.Inserts[i]
		b = binary.AppendUvarint(b, uint64(ins.ID))
		b = binary.AppendUvarint(b, uint64(ins.U))
		b = binary.AppendUvarint(b, uint64(ins.V))
		b = binary.AppendVarint(b, ins.Fwd)
		b = binary.AppendVarint(b, ins.Rev)
	}
	return rpcutil.AppendBool(b, p.SentTracking)
}

func (p *applyParams) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	p.PendingFile = d.Str("apply pending file")
	n := d.Count("apply caps")
	p.Caps = make(map[graph.EdgeID]capPair, n)
	for i := 0; i < n; i++ {
		id := graph.EdgeID(d.Uint32("apply cap edge"))
		p.Caps[id] = capPair{Fwd: d.Varint("apply cap fwd"), Rev: d.Varint("apply cap rev")}
	}
	p.Inserts = nil
	if n := d.Count("apply inserts"); n > 0 {
		p.Inserts = make([]insertEdge, n)
	}
	for i := range p.Inserts {
		ins := &p.Inserts[i]
		ins.ID = graph.EdgeID(d.Uint32("apply insert edge"))
		ins.U = graph.VertexID(d.Uint32("apply insert u"))
		ins.V = graph.VertexID(d.Uint32("apply insert v"))
		ins.Fwd = d.Varint("apply insert fwd")
		ins.Rev = d.Varint("apply insert rev")
	}
	p.SentTracking = d.Bool("apply sent tracking")
	return d.Finish("dynamic/apply params")
}

func (p *drainParams) append(b []byte) []byte { return rpcutil.AppendString(b, p.DeltasFile) }

func (p *drainParams) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	p.DeltasFile = d.Str("drain deltas file")
	return d.Finish("dynamic/drain params")
}

func init() {
	distmr.RegisterKind(KindApplyUpdates, func(params []byte) (*distmr.JobCode, error) {
		var p applyParams
		if err := p.decode(params); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return &applyMapper{p: &p} },
			NewReducer: func() mapreduce.Reducer { return passReducer{} },
		}, nil
	})
	distmr.RegisterKind(KindDrain, func(params []byte) (*distmr.JobCode, error) {
		var p drainParams
		if err := p.decode(params); err != nil {
			return nil, err
		}
		return &distmr.JobCode{
			NewMapper:  func() mapreduce.Mapper { return &drainMapper{file: p.DeltasFile} },
			NewReducer: func() mapreduce.Reducer { return passReducer{} },
		}, nil
	})
}

// buildApplyParams resolves a validated batch into the apply job's
// parameters: final directional capacities for every retargeted base
// edge and the inserted edges with their assigned IDs. Resolution runs
// against the already-updated input, so several updates to one edge in
// one batch collapse to the final value.
func buildApplyParams(snap *Snapshot, batch []graph.Update, updated *graph.Input, pendingFile string) *applyParams {
	baseEdges := len(snap.Input.Edges)
	caps := make(map[graph.EdgeID]capPair)
	for i := range batch {
		u := &batch[i]
		if u.Op != graph.UpdateSetCap || int(u.ID) >= baseEdges {
			continue
		}
		e := &updated.Edges[u.ID]
		cp := capPair{Fwd: e.Cap, Rev: e.Cap}
		if e.Directed {
			cp.Rev = 0
		}
		caps[u.ID] = cp
	}
	var inserts []insertEdge
	for i := baseEdges; i < len(updated.Edges); i++ {
		e := &updated.Edges[i]
		rev := e.Cap
		if e.Directed {
			rev = 0
		}
		inserts = append(inserts, insertEdge{
			ID: graph.EdgeID(i), U: e.U, V: e.V, Fwd: e.Cap, Rev: rev,
		})
	}
	return &applyParams{
		PendingFile:  pendingFile,
		Caps:         caps,
		Inserts:      inserts,
		SentTracking: snap.Opts.Variant >= core.FF5,
	}
}

// runApplyJob rewrites the snapshot's records under the update batch and
// returns the DFS prefix of the rewritten state plus the job's simulated
// cost.
func runApplyJob(cluster *mapreduce.Cluster, snap *Snapshot, batch []graph.Update,
	updated *graph.Input, warmPrefix string, pendingData []byte, parent *trace.Span) (string, time.Duration, error) {
	fs := cluster.FS
	pendingFile := warmPrefix + "pending-deltas"
	if err := fs.WriteFile(pendingFile, pendingData); err != nil {
		return "", 0, err
	}
	p := buildApplyParams(snap, batch, updated, pendingFile)
	out := warmPrefix + "state-apply/"
	job := &mapreduce.Job{
		Name:         fmt.Sprintf("dynamic-apply-%04d", snap.Gen+1),
		Inputs:       fs.List(snap.StatePrefix),
		OutputPrefix: out,
		NumReducers:  snap.Opts.Reducers,
		SideFiles:    []string{pendingFile},
		Parent:       parent,
		NewMapper:    func() mapreduce.Mapper { return &applyMapper{p: p} },
		NewReducer:   func() mapreduce.Reducer { return passReducer{} },
		Spec:         &mapreduce.JobSpec{Kind: KindApplyUpdates, Params: p.append(nil)},
	}
	res, err := cluster.Run(job)
	if err != nil {
		return "", 0, fmt.Errorf("dynamic: apply job: %w", err)
	}
	return out, res.SimTime, nil
}

// runDrainJob folds the cancellation deltas into every record and
// returns the drained state's prefix plus the job's simulated cost.
func runDrainJob(cluster *mapreduce.Cluster, snap *Snapshot, deltas map[graph.EdgeID]int64,
	warmPrefix, statePrefix string, parent *trace.Span) (string, time.Duration, error) {
	fs := cluster.FS
	drainFile := warmPrefix + "drain-deltas"
	if err := fs.WriteFile(drainFile, core.EncodeDeltas(deltas)); err != nil {
		return "", 0, err
	}
	out := warmPrefix + "state/"
	p := &drainParams{DeltasFile: drainFile}
	job := &mapreduce.Job{
		Name:         fmt.Sprintf("dynamic-drain-%04d", snap.Gen+1),
		Inputs:       fs.List(statePrefix),
		OutputPrefix: out,
		NumReducers:  snap.Opts.Reducers,
		SideFiles:    []string{drainFile},
		Parent:       parent,
		NewMapper:    func() mapreduce.Mapper { return &drainMapper{file: p.DeltasFile} },
		NewReducer:   func() mapreduce.Reducer { return passReducer{} },
		Spec:         &mapreduce.JobSpec{Kind: KindDrain, Params: p.append(nil)},
	}
	res, err := cluster.Run(job)
	if err != nil {
		return "", 0, fmt.Errorf("dynamic: drain job: %w", err)
	}
	return out, res.SimTime, nil
}

// applyMapper rewrites one vertex record under the batch: it folds the
// previous run's pending deltas into every edge copy, swaps in the
// updated capacities (adjacency halves and excess-path hop copies
// alike — a stale hop capacity would corrupt every later residual
// check), attaches inserted half-edges, prunes paths left without
// residual capacity, and zeroes the FF5 sent flags (a stale flag would
// suppress re-sends over edges whose capacity just changed).
type applyMapper struct {
	p *applyParams

	loaded  bool
	pending map[graph.EdgeID]int64
}

func (m *applyMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	u, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	val := new(graph.VertexValue)
	if err := graph.DecodeValueInto(value, val); err != nil {
		return err
	}
	if !val.IsMaster() {
		return fmt.Errorf("dynamic: apply mapper got a non-master record for vertex %d", u)
	}
	if !m.loaded {
		m.pending, err = core.DecodeDeltas(ctx.SideFile(m.p.PendingFile))
		if err != nil {
			return err
		}
		m.loaded = true
	}

	// Pending deltas first, so flows are current before capacities move.
	if len(m.pending) > 0 {
		for i := range val.Eu {
			if d, ok := m.pending[val.Eu[i].ID]; ok {
				val.Eu[i].ApplyDelta(d)
			}
		}
		for _, paths := range [2][]graph.ExcessPath{val.Su, val.Tu} {
			for pi := range paths {
				for ei := range paths[pi].Edges {
					pe := &paths[pi].Edges[ei]
					if d, ok := m.pending[pe.ID]; ok {
						pe.ApplyDelta(d)
					}
				}
			}
		}
	}

	// Capacity rewrite. Caps are stored canonically (Fwd/Rev of the
	// U->V orientation); each half and hop translates by its own
	// orientation.
	for i := range val.Eu {
		e := &val.Eu[i]
		cp, ok := m.p.Caps[e.ID]
		if !ok {
			continue
		}
		if e.Fwd {
			e.Cap, e.RevCap = cp.Fwd, cp.Rev
		} else {
			e.Cap, e.RevCap = cp.Rev, cp.Fwd
		}
		ctx.Inc("half edges recapped", 1)
		if e.Fwd && (e.Flow > e.Cap || -e.Flow > e.RevCap) {
			ctx.Inc("violating edges", 1)
		}
	}
	for _, paths := range [2][]graph.ExcessPath{val.Su, val.Tu} {
		for pi := range paths {
			for ei := range paths[pi].Edges {
				pe := &paths[pi].Edges[ei]
				if cp, ok := m.p.Caps[pe.ID]; ok {
					if pe.Fwd {
						pe.Cap = cp.Fwd
					} else {
						pe.Cap = cp.Rev
					}
				}
			}
		}
	}

	// Inserted half-edges, then restore the adjacency's (To, ID) order
	// so downstream extension passes stay deterministic.
	appended := 0
	for i := range m.p.Inserts {
		ins := &m.p.Inserts[i]
		if ins.U == u {
			val.Eu = append(val.Eu, graph.Edge{
				To: ins.V, ID: ins.ID, Cap: ins.Fwd, RevCap: ins.Rev, Fwd: true,
			})
			appended++
		}
		if ins.V == u {
			val.Eu = append(val.Eu, graph.Edge{
				To: ins.U, ID: ins.ID, Cap: ins.Rev, RevCap: ins.Fwd, Fwd: false,
			})
			appended++
		}
	}
	if appended > 0 {
		ctx.Inc("half edges inserted", int64(appended))
		sort.Slice(val.Eu, func(i, j int) bool {
			if val.Eu[i].To != val.Eu[j].To {
				return val.Eu[i].To < val.Eu[j].To
			}
			return val.Eu[i].ID < val.Eu[j].ID
		})
	}

	// Prune paths the new capacities saturated (ApplyAugmentedEdges with
	// no deltas is exactly the Fig. 3 line 4 pruning pass).
	if dropped := core.ApplyAugmentedEdges(val, nil); dropped > 0 {
		ctx.Inc("paths dropped", int64(dropped))
	}

	// Sent flags restart from scratch: degree may have changed, and every
	// suppressed extension must be re-offered against the new capacities.
	if m.p.SentTracking {
		val.SentS = make([]uint64, len(val.Eu))
		val.SentT = make([]uint64, len(val.Eu))
	}

	ctx.Emit(key, graph.EncodeValue(val))
	return nil
}

// drainMapper folds the flow-cancellation deltas into one record. It is
// deliberately nothing but the paper's own delta-application pass (MAP
// lines 1-4) run out-of-band: adjacency and hop copies update in
// canonical orientation and paths left without residual capacity are
// pruned.
type drainMapper struct {
	file string

	loaded bool
	deltas map[graph.EdgeID]int64
}

func (m *drainMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	u, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	val := new(graph.VertexValue)
	if err := graph.DecodeValueInto(value, val); err != nil {
		return err
	}
	if !val.IsMaster() {
		return fmt.Errorf("dynamic: drain mapper got a non-master record for vertex %d", u)
	}
	if !m.loaded {
		m.deltas, err = core.DecodeDeltas(ctx.SideFile(m.file))
		if err != nil {
			return err
		}
		m.loaded = true
	}
	if dropped := core.ApplyAugmentedEdges(val, m.deltas); dropped > 0 {
		ctx.Inc("paths dropped", int64(dropped))
	}
	ctx.Emit(key, graph.EncodeValue(val))
	return nil
}

// passReducer writes each mapped record through unchanged. Every key
// carries exactly one record (the jobs are per-vertex rewrites), which
// it asserts.
type passReducer struct{}

func (passReducer) Reduce(ctx *mapreduce.TaskContext, key, master []byte, values *mapreduce.Values) error {
	vb := values.Next()
	if vb == nil {
		return fmt.Errorf("dynamic: reduce group with no record")
	}
	ctx.Emit(key, vb)
	if values.Next() != nil {
		u, _ := graph.DecodeKey(key)
		return fmt.Errorf("dynamic: vertex %d has duplicate records", u)
	}
	return nil
}
