package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/rpcutil"
)

// Multi-round MR chains at the paper's scale run for hours; a failure in
// round 7 of 9 should not force recomputation from round 0. The driver
// therefore checkpoints its state to the DFS after every round: the last
// completed round, the flow accumulated so far, and the per-round
// statistics. Run with Options.Resume picks up from the checkpoint,
// reusing the retained round outputs and AugmentedEdges file.

const checkpointVersion = 1

type checkpoint struct {
	Variant   Variant
	Reducers  int
	Round     int // last completed round
	MaxFlow   int64
	Converged bool
	Stats     []RoundStat
}

func checkpointName(prefix string) string { return prefix + "checkpoint" }

func encodeCheckpoint(cp *checkpoint) []byte {
	buf := binary.AppendUvarint(nil, checkpointVersion)
	buf = binary.AppendVarint(buf, int64(cp.Variant))
	buf = binary.AppendVarint(buf, int64(cp.Reducers))
	buf = binary.AppendVarint(buf, int64(cp.Round))
	buf = binary.AppendVarint(buf, cp.MaxFlow)
	buf = rpcutil.AppendBool(buf, cp.Converged)
	buf = binary.AppendUvarint(buf, uint64(len(cp.Stats)))
	for _, s := range cp.Stats {
		for _, v := range []int64{
			int64(s.Round), s.APaths, s.Submitted, s.MaxQueue, s.FlowDelta,
			s.SourceMove, s.SinkMove, s.ActiveVertices, s.MapOutRecords,
			s.MapOutBytes, s.ShuffleBytes, s.MaxRecordBytes, s.MaxGroupBytes,
			s.OutputBytes, int64(s.SimTime), int64(s.WallTime),
		} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

func decodeCheckpoint(data []byte) (*checkpoint, error) {
	d := rpcutil.NewReader(data)
	if v := d.Uvarint("version"); d.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", v, checkpointVersion)
	}
	cp := &checkpoint{
		Variant:  Variant(d.Varint("variant")),
		Reducers: int(d.Varint("reducers")),
		Round:    int(d.Varint("round")),
		MaxFlow:  d.Varint("max flow"),
	}
	cp.Converged = d.Bool("converged")
	if n := d.Count("round stats"); n > 0 {
		cp.Stats = make([]RoundStat, n)
	}
	for i := range cp.Stats {
		s := &cp.Stats[i]
		s.Round = int(d.Varint("stat round"))
		s.APaths = d.Varint("stat a-paths")
		s.Submitted = d.Varint("stat submitted")
		s.MaxQueue = d.Varint("stat max queue")
		s.FlowDelta = d.Varint("stat flow delta")
		s.SourceMove = d.Varint("stat source move")
		s.SinkMove = d.Varint("stat sink move")
		s.ActiveVertices = d.Varint("stat active vertices")
		s.MapOutRecords = d.Varint("stat map out records")
		s.MapOutBytes = d.Varint("stat map out bytes")
		s.ShuffleBytes = d.Varint("stat shuffle bytes")
		s.MaxRecordBytes = d.Varint("stat max record bytes")
		s.MaxGroupBytes = d.Varint("stat max group bytes")
		s.OutputBytes = d.Varint("stat output bytes")
		s.SimTime = time.Duration(d.Varint("stat sim time"))
		s.WallTime = time.Duration(d.Varint("stat wall time"))
	}
	if err := d.Finish("checkpoint"); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return cp, nil
}

func writeCheckpoint(fs *dfs.FS, prefix string, cp *checkpoint) error {
	return fs.WriteFile(checkpointName(prefix), encodeCheckpoint(cp))
}

func readCheckpoint(fs *dfs.FS, prefix string) (*checkpoint, error) {
	data, err := fs.ReadFile(checkpointName(prefix))
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}
