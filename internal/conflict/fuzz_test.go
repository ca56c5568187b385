package conflict

import (
	"slices"
	"testing"

	"wavedag/internal/gen"
)

// FuzzDynamicDSATUR checks the DSATUR kernel run in place on a
// Dynamic's adjacency bitsets against the static oracle: after every
// decoded insertion or removal, Dynamic.DSATURColoring must return the
// live slots in increasing order with exactly the colors
// Snapshot().DSATURColoring() gives their snapshot vertices, those must
// equal the original selection-scan DSATUR (refDSATUR), and the
// coloring must be proper. The topology is a dense random DAG, full of
// internal cycles, so the conflict graphs are far from the interval-like
// ones Theorem 1 families produce. Each of the first 64 bytes is one
// operation: an even byte inserts pool path b/2, an odd byte removes
// live entry b/2 (modulo the pool and live sizes).
func FuzzDynamicDSATUR(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 3, 20, 22, 1, 24})
	f.Add([]byte{8, 8, 8, 8, 1, 1, 8, 40, 42, 44, 46, 5, 48})
	f.Add([]byte{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126})
	g := gen.RandomDAG(14, 40, 3)
	pool := gen.RandomWalkFamily(g, 64, 6, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		d := NewDynamic(g)
		var live []int
		for op, b := range data {
			if b%2 == 0 || len(live) == 0 {
				s, err := d.AddPath(pool[int(b/2)%len(pool)])
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, s)
			} else {
				k := int(b/2) % len(live)
				if err := d.RemovePath(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			slots, colors := d.DSATURColoring()
			snap, snapSlots := d.Snapshot()
			want := snap.DSATURColoring()
			if ref := snap.refDSATUR(); !slices.Equal(want, ref) {
				t.Fatalf("op %d: Graph DSATUR %v, reference %v", op, want, ref)
			}
			if len(slots) != len(snapSlots) || len(colors) != len(want) {
				t.Fatalf("op %d: %d slots and %d colors, want %d and %d",
					op, len(slots), len(colors), len(snapSlots), len(want))
			}
			for i := range slots {
				if slots[i] != snapSlots[i] || colors[i] != want[i] {
					t.Fatalf("op %d: entry %d is slot %d color %d, want slot %d color %d",
						op, i, slots[i], colors[i], snapSlots[i], want[i])
				}
			}
			if err := snap.ValidateColoring(colors); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}
