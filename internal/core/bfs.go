package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file implements the multi-round MapReduce breadth-first search the
// paper uses both to estimate graph diameter (Section V-A1) and as the
// lower-bound baseline for rounds and runtime in Fig. 6 and Fig. 8 ("we
// highlight that our FFMR algorithm is comparable in terms of number of
// rounds performed and only a constant factor slower than the BFS
// algorithm in MR").

// bfsValue is a BFS vertex record: the distance from the source (-1 when
// unvisited) plus the adjacency list. Fragments carry only a proposed
// distance.
type bfsValue struct {
	master    bool
	dist      int64
	neighbors []graph.VertexID
}

func encodeBFS(dst []byte, v *bfsValue) []byte {
	if v.master {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendVarint(dst, v.dist)
	if v.master {
		dst = binary.AppendUvarint(dst, uint64(len(v.neighbors)))
		for _, n := range v.neighbors {
			dst = binary.AppendUvarint(dst, uint64(n))
		}
	}
	return dst
}

func decodeBFS(data []byte, v *bfsValue) error {
	if len(data) < 1 {
		return fmt.Errorf("core: empty bfs value")
	}
	v.master = data[0] != 0
	off := 1
	d, n := binary.Varint(data[off:])
	if n <= 0 {
		return fmt.Errorf("core: corrupt bfs dist")
	}
	off += n
	v.dist = d
	v.neighbors = v.neighbors[:0]
	if !v.master {
		return nil
	}
	cnt, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return fmt.Errorf("core: corrupt bfs neighbor count")
	}
	off += n
	for i := uint64(0); i < cnt; i++ {
		nb, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fmt.Errorf("core: corrupt bfs neighbor")
		}
		off += n
		v.neighbors = append(v.neighbors, graph.VertexID(nb))
	}
	return nil
}

// The two BFS task bodies below get FF4's treatment: a mapper or reducer
// is created per task (Job.NewMapper/NewReducer), so the decoded values,
// keys and output buffers it owns serve every record of the task and the
// record path allocates nothing once they have grown. Emit copies.

// bfsMapper expands the current frontier: vertices whose distance equals
// round-1 propose distance round to every neighbour.
type bfsMapper struct {
	round int64
	v     bfsValue
	key   []byte
	frag  []byte
}

func (m *bfsMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	if err := decodeBFS(value, &m.v); err != nil {
		return err
	}
	if m.v.dist == m.round-1 {
		m.frag = encodeBFS(m.frag[:0], &bfsValue{dist: m.round})
		for _, nb := range m.v.neighbors {
			m.key = graph.AppendKey(m.key[:0], nb)
			ctx.Emit(m.key, m.frag)
		}
	}
	ctx.Emit(key, value)
	return nil
}

// bfsReducer keeps the smallest proposed distance for an unvisited vertex.
type bfsReducer struct {
	master, v bfsValue
	out       []byte
}

func (r *bfsReducer) Reduce(ctx *mapreduce.TaskContext, key, _ []byte, values *mapreduce.Values) error {
	var proposed int64 = -1
	var haveMaster bool
	for {
		vb := values.Next()
		if vb == nil {
			break
		}
		if err := decodeBFS(vb, &r.v); err != nil {
			return err
		}
		if r.v.master {
			// Keep the decoded record by trading it for the spare one,
			// neighbour array and all.
			r.master, r.v = r.v, r.master
			haveMaster = true
		} else if proposed < 0 || r.v.dist < proposed {
			proposed = r.v.dist
		}
	}
	if !haveMaster {
		return fmt.Errorf("core: bfs vertex lost its master record")
	}
	if r.master.dist < 0 && proposed >= 0 {
		r.master.dist = proposed
		ctx.Inc("frontier", 1)
	}
	r.out = encodeBFS(r.out[:0], &r.master)
	ctx.Emit(key, r.out)
	return nil
}

// BFSResult reports a multi-round MR BFS run.
type BFSResult struct {
	// Rounds is the number of expansion rounds executed (excluding round
	// #0, which writes the vertex records); it equals the eccentricity of
	// the source within its component, plus one final empty round that
	// detects termination.
	Rounds int
	// SinkDist is the source-to-sink distance, or -1 if unreachable.
	SinkDist int
	// Visited is the number of vertices reached.
	Visited int64
	// RoundStats has one entry per round, index 0 being round #0.
	RoundStats []RoundStat

	TotalSimTime  time.Duration
	TotalWallTime time.Duration
}

// RunBFS executes a multi-round MapReduce BFS from in.Source, the
// baseline the paper compares FFMR against.
func RunBFS(cluster *mapreduce.Cluster, in *graph.Input, reducers int, pathPrefix string) (*BFSResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if reducers <= 0 {
		reducers = cluster.Nodes * cluster.SlotsPerNode
		if reducers > 64 {
			reducers = 64
		}
	}
	if pathPrefix == "" {
		pathPrefix = "bfs/"
	}
	fs := cluster.FS
	fs.DeletePrefix(pathPrefix)

	// Round #0: the driver writes one master record per vertex that has
	// edges, its neighbours sorted and distinct.
	result := &BFSResult{SinkDist: -1, Visited: 1}
	t0 := time.Now()
	parts := make(partitions, reducers)
	var key, value []byte
	for u, neighbors := range graph.Adjacency(in) {
		if len(neighbors) == 0 {
			continue
		}
		v := bfsValue{master: true, dist: -1, neighbors: neighbors}
		if graph.VertexID(u) == in.Source {
			v.dist = 0
		}
		key, value = graph.AppendKey(key[:0], graph.VertexID(u)), encodeBFS(value[:0], &v)
		parts.add(key, value)
	}
	written, err := parts.write(fs, roundPrefix(pathPrefix, 0))
	if err != nil {
		return nil, err
	}
	result.RoundStats = append(result.RoundStats, hostRoundStat(cluster, written, time.Since(t0)))

	maxRounds := in.NumVertices + 1
	for round := 1; round <= maxRounds; round++ {
		r := round
		job := &mapreduce.Job{
			Name:         fmt.Sprintf("bfs-round-%d", round),
			Round:        round,
			Inputs:       fs.List(roundPrefix(pathPrefix, round-1)),
			OutputPrefix: roundPrefix(pathPrefix, round),
			NumReducers:  reducers,
			NewMapper:    func() mapreduce.Mapper { return &bfsMapper{round: int64(r)} },
			NewReducer:   func() mapreduce.Reducer { return &bfsReducer{} },
			Spec:         &mapreduce.JobSpec{Kind: KindBFSRound, Params: (&bfsRoundParams{Round: int64(r)}).append(nil)},
		}
		res, err := cluster.Run(job)
		if err != nil {
			return nil, err
		}
		result.RoundStats = append(result.RoundStats, jobStat(round, res, AugProcStats{}))
		result.Rounds = round
		frontier := res.Counter("frontier")
		result.Visited += frontier
		if round >= 2 {
			fs.DeletePrefix(roundPrefix(pathPrefix, round-2))
		}
		if frontier == 0 {
			break
		}
	}

	// Recover the sink distance from the final records.
	verts := fs.List(roundPrefix(pathPrefix, result.Rounds))
	sinkKey := graph.KeyBytes(in.Sink)
	for _, name := range verts {
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if d, ok, err := findBFSDist(data, sinkKey); err != nil {
			return nil, err
		} else if ok {
			result.SinkDist = int(d)
			break
		}
	}

	for i := range result.RoundStats {
		result.TotalSimTime += result.RoundStats[i].SimTime
		result.TotalWallTime += result.RoundStats[i].WallTime
	}
	return result, nil
}

func findBFSDist(fileData, key []byte) (int64, bool, error) {
	r := dfs.NewRecordReader(fileData)
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return 0, false, nil
		}
		if string(k) == string(key) {
			var bv bfsValue
			if err := decodeBFS(v, &bv); err != nil {
				return 0, false, err
			}
			return bv.dist, true, nil
		}
	}
}
