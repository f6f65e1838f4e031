package stats

import (
	"ffmr/internal/core"
)

// RoundTable renders per-round statistics in the shape of the paper's
// Table I: one row per MapReduce round with the accepted augmenting
// paths, aug_proc queue high-water mark, map output volume, shuffle
// volume and active-vertex count. The rows are Result.RoundStats; the
// driver writes the same values onto each round's trace span, so a
// rendered table and an exported trace agree.
func RoundTable(title string, rounds []core.RoundStat) *Table {
	t := NewTable(title,
		"R", "A-Paths", "MaxQ", "Map Out", "Shuffle(KB)", "Active", "Runtime")
	for _, r := range rounds {
		t.AddRow(
			r.Round,
			FormatCount(r.APaths),
			FormatCount(r.MaxQueue),
			FormatCount(r.MapOutRecords),
			FormatCount(r.ShuffleBytes/1024),
			FormatCount(r.ActiveVertices),
			FormatDuration(r.SimTime),
		)
	}
	return t
}
