package radio

import (
	"math/rand"
	"testing"

	"radiocolor/internal/graph"
)

// FuzzTilePartition fuzzes the tiled kernel's structural invariants on
// random graphs and tile counts: the contiguous-range partition covers
// every node exactly once, the binary-searched row splits classify each
// CSR entry on the correct side of the tile boundary, the cross-tile
// edge relation is symmetric (if u's row sees v as cross, v's row sees
// u as cross — the property the boundary exchange relies on to route
// every inter-tile reception exactly once), the activity-list
// segmentation agrees with the node→tile map, and the relabeling
// permutation the tiles are built on composes with its inverse to the
// identity.
func FuzzTilePartition(f *testing.F) {
	f.Add(uint16(1), uint8(1), int64(1), uint8(10))
	f.Add(uint16(50), uint8(7), int64(42), uint8(40))
	f.Add(uint16(63), uint8(8), int64(7), uint8(3))
	f.Add(uint16(64), uint8(8), int64(9), uint8(128))
	f.Add(uint16(200), uint8(3), int64(1234), uint8(20))
	f.Add(uint16(500), uint8(64), int64(-5), uint8(60))
	f.Fuzz(func(t *testing.T, nRaw uint16, tilesRaw uint8, seed int64, density uint8) {
		n := int(nRaw)%500 + 1
		tiles := int(tilesRaw)%n + 1
		p := float64(density) / 512

		r := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					b.AddEdge(i, j)
				}
			}
		}
		// Tile the graph under a random relabeling, like the production
		// path (relabel for locality, then partition contiguous ranges).
		fwd := make([]int32, n)
		for i, v := range r.Perm(n) {
			fwd[i] = int32(v)
		}
		perm, err := graph.NewPermutation(fwd)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if perm.Inverse[perm.Forward[v]] != int32(v) || perm.Forward[perm.Inverse[v]] != int32(v) {
				t.Fatalf("inverse∘perm != identity at node %d", v)
			}
		}
		g := perm.Apply(b.Build())
		csr := g.CSR()
		ts := newTileState(tiles, n, csr.Offsets[:n], csr.Offsets[1:], csr.Edges, true)

		if int(ts.size)*ts.tiles < n {
			t.Fatalf("tiles cover %d nodes, graph has %d", int(ts.size)*ts.tiles, n)
		}
		// Every node in exactly one tile, and every tile non-empty (the
		// constructor drops empty trailing tiles).
		counts := make([]int, ts.tiles)
		for v := 0; v < n; v++ {
			k := int(int32(v) / ts.size)
			if k < 0 || k >= ts.tiles {
				t.Fatalf("node %d maps to tile %d of %d", v, k, ts.tiles)
			}
			counts[k]++
		}
		total := 0
		for k, c := range counts {
			if c == 0 {
				t.Fatalf("tile %d is empty (%d tiles over %d nodes)", k, ts.tiles, n)
			}
			total += c
		}
		if total != n {
			t.Fatalf("partition covers %d of %d nodes", total, n)
		}

		// Row splits: [rowLo, rowHi) is exactly the intra-tile span of
		// each sorted row; everything outside is cross-tile, and the
		// cross relation is symmetric.
		for v := 0; v < n; v++ {
			kv := int32(v) / ts.size
			lo, hi := csr.Offsets[v], csr.Offsets[v+1]
			rlo, rhi := ts.rowLo[v], ts.rowHi[v]
			if rlo < lo || rhi < rlo || hi < rhi {
				t.Fatalf("node %d: row split [%d,%d) outside row [%d,%d)", v, rlo, rhi, lo, hi)
			}
			for i := lo; i < hi; i++ {
				u := csr.Edges[i]
				ku := u / ts.size
				intra := i >= rlo && i < rhi
				if intra != (ku == kv) {
					t.Fatalf("node %d (tile %d): neighbor %d (tile %d) at index %d classified intra=%v",
						v, kv, u, ku, i, intra)
				}
				if !intra {
					// Symmetry: u's row must classify v as cross too.
					j := lowerBound32(csr.Edges, csr.Offsets[u], csr.Offsets[u+1], int32(v))
					if j >= csr.Offsets[u+1] || csr.Edges[j] != int32(v) {
						t.Fatalf("edge (%d,%d) not symmetric in CSR", v, u)
					}
					if j >= ts.rowLo[u] && j < ts.rowHi[u] {
						t.Fatalf("edge (%d,%d) cross from %d but intra from %d", v, u, v, u)
					}
				}
			}
		}

		// Segmentation of a random ascending id list agrees with the
		// node→tile map: every id in segment k belongs to tile k.
		var list []int32
		for v := 0; v < n; v++ {
			if r.Intn(3) != 0 {
				list = append(list, int32(v))
			}
		}
		seg := make([]int, ts.tiles+1)
		ts.segment(list, seg)
		if seg[0] != 0 || seg[ts.tiles] != len(list) {
			t.Fatalf("segment bounds [%d,%d] don't span list of %d", seg[0], seg[ts.tiles], len(list))
		}
		for k := 0; k < ts.tiles; k++ {
			if seg[k] > seg[k+1] {
				t.Fatalf("segment %d bounds inverted: %d > %d", k, seg[k], seg[k+1])
			}
			for _, v := range list[seg[k]:seg[k+1]] {
				if v/ts.size != int32(k) {
					t.Fatalf("id %d (tile %d) landed in segment %d", v, v/ts.size, k)
				}
			}
		}
	})
}

// TestAutoTiles pins the auto selector's shape: one tile below the
// target tile size, linear growth, and the hard cap.
func TestAutoTiles(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},
		{tileNodes - 1, 1},
		{tileNodes, 1},
		{4 * tileNodes, 4},
		{10_000_000, 10_000_000 / tileNodes},
		{maxTiles * tileNodes * 2, maxTiles},
	}
	for _, c := range cases {
		if got := AutoTiles(c.n); got != c.want {
			t.Errorf("AutoTiles(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
