package prflow

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ffmr/internal/graph"
	"ffmr/internal/pregel"
)

// The superstep protocol. Supersteps alternate between two roles, with
// periodic global-relabeling interludes, all sequenced by the master
// (prflow.go):
//
//	push:     every active vertex (excess > 0, not s or t) pushes along
//	          admissible edges (residual > 0, h(u) == h(neighbour)+1)
//	          and sends one flow message per push. Heights never change
//	          here, so the neighbour-height table every vertex carries
//	          is exact during every push decision.
//	update:   flow messages are applied (excess materializes at the
//	          receiver), then vertices with excess and no admissible
//	          edge relabel to 1 + min over residual neighbour heights
//	          and announce the new height. The total remaining excess is
//	          aggregated at this barrier — with no flow in flight, zero
//	          aggregate excess means the preflow is a flow and, by
//	          height validity, a maximum one.
//	bfs-init/bfs-wave/bfs-apply: the global-relabeling heuristic — a
//	          backward BFS from the sink through residual edges, run as
//	          message waves while flow is frozen; apply lifts every
//	          height to max(h, d_t) (unreached vertices to max(h, n))
//	          and re-announces all heights, then resets the wave label
//	          (dist = -1) so the next bfs-init finds every vertex
//	          unlabelled without visiting it.
//	done:     every vertex still awake votes to halt.
//
// Who is awake. The protocol follows Pregel's halting contract, so a
// superstep costs its active vertices and its messages rather than the
// graph (the work-list discipline of Baumstark-Blelloch-Shun): after
// any step but done, a vertex without excess votes to halt, and it is
// woken by the message that gives it work — flow landing on it, a
// neighbour's new height, a BFS label. A vertex holding excess stays
// awake from the update that found it to the push that spends it. The
// apply step is the one every vertex takes part in whether or not it
// has mail, so the master wakes the whole engine for exactly that
// superstep (pregel.Engine.WakeAll); the heights it announces then wake
// every vertex once more to record them. s and t never halt before
// done: the sink opens each wave and reports its inflow, and an awake
// vertex is what makes the engine run the next superstep when no
// message is in flight — the final done superstep included. Halting
// changes which vertices are visited, never what a visited vertex
// does: an idle vertex's Compute was always a decode and an identical
// re-encode (TestPrflowProtocolPinned holds the counts).
//
// The invariant carried across all of this is height validity:
// h(u) <= h(v) + 1 for every residual edge (u,v), with h(s) = n pinned
// and h(t) = 0. Pushes preserve it because they are exact (the new
// reverse edge (v,u) gets h(v) = h(u)-1); simultaneous relabels
// preserve it because every relabel uses exact start-of-barrier
// neighbour heights and heights only ever increase; the BFS lift
// preserves it because the pointwise max of two valid labelings is
// valid. Validity plus h(s) = n is what makes zero excess a proof of
// maximality: any residual s-t path would need n to fall to 0 in at
// most n-1 unit steps.

// Phases published by the master as the one-byte global side data; the
// value is the phase of the superstep about to run. Superstep 0 sees
// nil global data and runs as phasePush (the host seeds exact initial
// heights, so pushing immediately is safe).
const (
	phasePush byte = iota
	phaseUpdate
	phaseBFSInit
	phaseBFSWave
	phaseBFSApply
	phaseDone
)

// Aggregator names. All are summed per superstep by the pregel engine.
const (
	aggExcess   = "excess"      // total excess outside s,t (update barriers)
	aggActive   = "active"      // vertices holding excess (update barriers)
	aggPushes   = "pushes"      // push operations (push barriers)
	aggRelabels = "relabels"    // relabel operations (update barriers)
	aggSinkIn   = "sink inflow" // flow absorbed by t this superstep
	aggLabeled  = "bfs labeled" // vertices labeled this wave superstep
)

// Message tags.
const (
	tagFlow   byte = 'F' // edge ID + canonical-orientation delta
	tagHeight byte = 'H' // sender + new height
	tagBFS    byte = 'B' // sender + distance-to-sink label
)

func encodeFlowMsg(dst []byte, id graph.EdgeID, delta int64) []byte {
	dst = append(dst, tagFlow)
	dst = binary.AppendUvarint(dst, uint64(id))
	return binary.AppendVarint(dst, delta)
}

func encodeHeightMsg(dst []byte, sender graph.VertexID, height int64) []byte {
	dst = append(dst, tagHeight)
	dst = binary.AppendUvarint(dst, uint64(sender))
	return binary.AppendVarint(dst, height)
}

func encodeBFSMsg(dst []byte, sender graph.VertexID, dist int64) []byte {
	dst = append(dst, tagBFS)
	dst = binary.AppendUvarint(dst, uint64(sender))
	return binary.AppendVarint(dst, dist)
}

func decodeMsgBody(data []byte) (uint64, int64, error) {
	a, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("prflow: corrupt message")
	}
	b, m := binary.Varint(data[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("prflow: corrupt message")
	}
	return a, b, nil
}

// state is one vertex's push-relabel state: the classical height and
// excess, the adjacency with live flows (the residual network), the
// exact last-announced height of each edge's far endpoint, and the
// per-relabel-cycle BFS label.
type state struct {
	height int64
	excess int64
	dist   int64 // BFS wave label; -1 outside / before a wave
	edges  []graph.Edge
	nbrH   []int64 // parallel to edges
}

func encodeState(dst []byte, st *state) []byte {
	dst = binary.AppendVarint(dst, st.height)
	dst = binary.AppendVarint(dst, st.excess)
	dst = binary.AppendVarint(dst, st.dist)
	dst = binary.AppendUvarint(dst, uint64(len(st.edges)))
	for i := range st.edges {
		e := &st.edges[i]
		dst = binary.AppendUvarint(dst, uint64(e.To))
		dst = binary.AppendUvarint(dst, uint64(e.ID))
		dst = binary.AppendVarint(dst, e.Flow)
		dst = binary.AppendVarint(dst, e.Cap)
		dst = binary.AppendVarint(dst, e.RevCap)
		if e.Fwd {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendVarint(dst, st.nbrH[i])
	}
	return dst
}

// decodeState decodes into st, reusing its edge and height arrays. A
// record that is truncated or has bytes after its last edge is an error.
func decodeState(data []byte, st *state) error {
	off := 0
	next := func() (int64, error) {
		v, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("prflow: corrupt vertex state")
		}
		off += n
		return v, nil
	}
	nextU := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("prflow: corrupt vertex state")
		}
		off += n
		return v, nil
	}
	var err error
	if st.height, err = next(); err != nil {
		return err
	}
	if st.excess, err = next(); err != nil {
		return err
	}
	if st.dist, err = next(); err != nil {
		return err
	}
	cnt, err := nextU()
	if err != nil {
		return err
	}
	// Every edge takes at least seven bytes, so a count the record
	// cannot hold is corrupt, not a reason to allocate.
	if cnt > uint64(len(data)) {
		return fmt.Errorf("prflow: corrupt vertex state")
	}
	st.edges = slices.Grow(st.edges[:0], int(cnt))[:cnt]
	st.nbrH = slices.Grow(st.nbrH[:0], int(cnt))[:cnt]
	for i := range st.edges {
		e := &st.edges[i]
		to, err := nextU()
		if err != nil {
			return err
		}
		id, err := nextU()
		if err != nil {
			return err
		}
		e.To, e.ID = graph.VertexID(to), graph.EdgeID(id)
		if e.Flow, err = next(); err != nil {
			return err
		}
		if e.Cap, err = next(); err != nil {
			return err
		}
		if e.RevCap, err = next(); err != nil {
			return err
		}
		if off >= len(data) {
			return fmt.Errorf("prflow: corrupt vertex state")
		}
		e.Fwd = data[off] != 0
		off++
		if st.nbrH[i], err = next(); err != nil {
			return err
		}
	}
	if off != len(data) {
		return fmt.Errorf("prflow: %d trailing bytes after vertex state", len(data)-off)
	}
	return nil
}

// broadcast sends msg to every distinct neighbour. The adjacency is
// sorted by (To, ID), so parallel edges are adjacent and skipped.
func broadcast(ctx *pregel.Context, st *state, msg []byte) {
	for i := range st.edges {
		if i > 0 && st.edges[i].To == st.edges[i-1].To {
			continue
		}
		ctx.SendTo(st.edges[i].To, msg)
	}
}

// program is the per-vertex compute function.
type program struct {
	n            int64
	source, sink graph.VertexID
}

// Compute implements pregel.Program for one superstep of the protocol
// described at the top of this file.
func (p *program) Compute(ctx *pregel.Context, v *pregel.Vertex, messages [][]byte) error {
	phase := phasePush
	if g := ctx.Global(); len(g) > 0 {
		phase = g[0]
	}
	if phase == phaseDone {
		ctx.VoteToHalt()
		return nil
	}
	st := new(state)
	if err := decodeState(v.Value, st); err != nil {
		return err
	}
	terminal := v.ID == p.source || v.ID == p.sink
	var msgBuf [1 + 2*binary.MaxVarintLen64]byte

	// Message application is phase-independent: height announcements can
	// arrive in any phase (relabels announce into whatever superstep
	// follows), flow messages only ever arrive in update supersteps, and
	// BFS labels only during waves, where the wave step reads them.
	var sinkInflow int64
	for _, m := range messages {
		if len(m) < 1 {
			return fmt.Errorf("prflow: empty message")
		}
		a, b, err := decodeMsgBody(m[1:])
		if err != nil {
			return err
		}
		switch m[0] {
		case tagHeight:
			sender, height := graph.VertexID(a), b
			for i := range st.edges {
				if st.edges[i].To == sender {
					st.nbrH[i] = height
				}
			}
		case tagFlow:
			id, delta := graph.EdgeID(a), b
			found := false
			for i := range st.edges {
				if st.edges[i].ID == id {
					st.edges[i].ApplyDelta(delta)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("prflow: vertex %d received flow for foreign edge %d", v.ID, id)
			}
			amt := delta
			if amt < 0 {
				amt = -amt
			}
			switch v.ID {
			case p.source:
				// Excess returning to the source leaves the system.
			case p.sink:
				sinkInflow += amt
			default:
				st.excess += amt
			}
		case tagBFS:
		default:
			return fmt.Errorf("prflow: unknown message tag %q", m[0])
		}
	}

	switch phase {
	case phasePush:
		if st.excess > 0 && !terminal {
			for i := range st.edges {
				if st.excess == 0 {
					break
				}
				e := &st.edges[i]
				if e.Residual() <= 0 || st.height != st.nbrH[i]+1 {
					continue
				}
				amt := st.excess
				if r := e.Residual(); r < amt {
					amt = r
				}
				e.Flow += amt
				st.excess -= amt
				delta := amt
				if !e.Fwd {
					delta = -amt
				}
				ctx.SendTo(e.To, encodeFlowMsg(msgBuf[:0], e.ID, delta))
				ctx.Aggregate(aggPushes, 1)
			}
		}

	case phaseUpdate:
		if st.excess > 0 && !terminal {
			admissible := false
			minH := int64(math.MaxInt64)
			for i := range st.edges {
				if st.edges[i].Residual() <= 0 {
					continue
				}
				if st.height == st.nbrH[i]+1 {
					admissible = true
					break
				}
				if st.nbrH[i] < minH {
					minH = st.nbrH[i]
				}
			}
			if !admissible && minH < int64(math.MaxInt64) {
				st.height = minH + 1
				ctx.Aggregate(aggRelabels, 1)
				broadcast(ctx, st, encodeHeightMsg(msgBuf[:0], v.ID, st.height))
			}
			ctx.Aggregate(aggExcess, st.excess)
			ctx.Aggregate(aggActive, 1)
		}
		if v.ID == p.sink && sinkInflow > 0 {
			ctx.Aggregate(aggSinkIn, sinkInflow)
		}

	case phaseBFSInit:
		// Every dist is -1 here: the initial state has it so and
		// bfs-apply leaves it so.
		if v.ID == p.sink {
			st.dist = 0
			broadcast(ctx, st, encodeBFSMsg(msgBuf[:0], v.ID, 0))
		}

	case phaseBFSWave:
		if st.dist < 0 {
			best := int64(-1)
			for _, m := range messages {
				if m[0] != tagBFS {
					continue
				}
				a, d, _ := decodeMsgBody(m[1:]) // decoded without error above
				sender := graph.VertexID(a)
				for i := range st.edges {
					if st.edges[i].To == sender && st.edges[i].Residual() > 0 {
						if best < 0 || d < best {
							best = d
						}
						break
					}
				}
			}
			if best >= 0 {
				st.dist = best + 1
				ctx.Aggregate(aggLabeled, 1)
				broadcast(ctx, st, encodeBFSMsg(msgBuf[:0], v.ID, st.dist))
			}
		}

	case phaseBFSApply:
		if !terminal {
			d := st.dist
			if d < 0 {
				d = p.n
			}
			if d > st.height {
				st.height = d
			}
		}
		broadcast(ctx, st, encodeHeightMsg(msgBuf[:0], v.ID, st.height))
		st.dist = -1

	default:
		return fmt.Errorf("prflow: unknown phase %d", phase)
	}

	v.Value = encodeState(v.Value[:0], st)
	// Nothing to do until a message (or the master's wake-up before
	// bfs-apply) brings work; s and t stay awake until phaseDone.
	if st.excess == 0 && !terminal {
		ctx.VoteToHalt()
	}
	return nil
}
