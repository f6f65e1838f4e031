package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/graphgen"
)

// warmChainPins holds, per FB1' chain, the hash warmChainHash takes of its
// six seeded generations.
var warmChainPins = map[string]string{
	"FF1/b5": "0383f8576813e33c", "FF1/b25": "c483373a58d17a60", "FF1/b80": "37ab9e7f662b74f3",
	"FF2/b5": "6aff140619d65d13", "FF2/b25": "1c68466aeed00c35", "FF2/b80": "8fb2ef45cc232ad8",
	"FF3/b5": "fabb83a47978053a", "FF3/b25": "175c9277be9ce1e4", "FF3/b80": "82a70d8244ed17aa",
	"FF4/b5": "236a00c033ce1c64", "FF4/b25": "5a7efc40e8098561", "FF4/b80": "12e5a66694c1629f",
	"FF5/b5": "8aad5dc7ce255b70", "FF5/b25": "d517c5522f3c0b4d", "FF5/b80": "13d2ca0c02b6ee40",
}

// warmChainHash hashes what a warm restart decides: its rounds, each
// max-flow round's A-Paths and FlowDelta, the flow value and the flow
// vector. Round #0's stat is skipped (Round 0), so the hash does not
// depend on how round #0 came to exist.
//
// Every counter that counts the search frontier is left out on purpose:
// source and sink moves, active vertices, map-out records, and the
// Submitted and MaxQueue counts of candidate paths. They depend on which
// excess paths round #0 carries. The pins were recorded when a MapReduce
// job wrote round #0 and pruned the paths against the recapped but
// unrepaired flow; the host writer prunes against the repaired flow.
// Where a batch's violations were rerouted, the repair can free a hop the
// unrepaired flow saturated, and the path over it is now kept. In FF4 b80
// generation 4, for one, such a path near the source adds 30 source moves
// and takes round 1's candidates from 5 to 45; the round still accepts the
// same path, and every decision hashed here stays the same.
func warmChainHash(h []byte, res *core.Result) []byte {
	b := binary.AppendVarint(nil, int64(res.Rounds))
	for _, rs := range res.RoundStats {
		if rs.Round == 0 {
			continue
		}
		for _, x := range []int64{int64(rs.Round), rs.APaths, rs.FlowDelta} {
			b = binary.AppendVarint(b, x)
		}
	}
	b = binary.AppendVarint(b, res.MaxFlow)
	for _, f := range res.Flows {
		b = binary.AppendVarint(b, f)
	}
	sum := sha256.Sum256(append(h, b...))
	return sum[:]
}

// TestWarmChainPinned runs FB1' under FF1-FF5 with update batches of 5, 25
// and 80 for six seeded generations each and holds every chain's warm
// decisions (see warmChainHash) to a pinned hash.
func TestWarmChainPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen six-generation chains; skipped with -short")
	}
	in := fbPrime(t)[0]
	for _, v := range []core.Variant{core.FF1, core.FF2, core.FF3, core.FF4, core.FF5} {
		for _, size := range []int{5, 25, 80} {
			name := fmt.Sprintf("%s/b%d", v, size)
			t.Run(name, func(t *testing.T) {
				cluster := testCluster(3)
				snap := solveSnap(t, cluster, in, core.Options{Variant: v})
				var h []byte
				rounds := make([]int, 0, 6)
				for gen := 1; gen <= 6; gen++ {
					batch, err := graphgen.GenerateUpdates(snap.Input, size, graphgen.DefaultUpdateProfile(),
						int64(1000*size+10*int(v)+gen))
					if err != nil {
						t.Fatalf("gen %d: GenerateUpdates: %v", gen, err)
					}
					out := applyChecked(t, cluster, snap, batch)
					h = warmChainHash(h, out.Warm)
					rounds = append(rounds, out.Warm.Rounds)
					snap = out.Snapshot
				}
				got := hex.EncodeToString(h[:8])
				t.Logf("warm rounds per generation %v", rounds)
				if want := warmChainPins[name]; got != want {
					t.Errorf("%s: warm chain hash %s, pinned %s", name, got, want)
				}
			})
		}
	}
}
