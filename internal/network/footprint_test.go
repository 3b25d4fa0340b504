package network

import (
	"runtime"
	"testing"

	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// footprintBudget is each router kind's live-heap budget per node, in
// bytes, for a freshly built 32x32 mesh on the gated kernel: 10% above
// what the layout measured when the budget was set (amd64).
var footprintBudget = map[string]float64{
	"generic":       1.1 * 4727,
	"pathsensitive": 1.1 * 4255,
	"roco":          1.1 * 4255,
	"pdr":           1.1 * 4383,
}

// TestFootprintPerNode guards the per-node memory layout. Building a
// network and forcing a collection leaves exactly its live state on the
// heap; a change that boxes a per-node structure again (a credit book, an
// arbiter, a link) raises the bytes per node here long before the
// benchmark's peak-RSS bound notices.
func TestFootprintPerNode(t *testing.T) {
	const k = 32
	for _, b := range kernelBuilders {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // the second collection also frees sync.Pool victims
		runtime.ReadMemStats(&before)
		n := New(Config{
			Topo:      topology.NewMesh(k, k),
			Algorithm: routing.XY,
			Build:     b.build,
			Traffic:   traffic.Config{Pattern: traffic.Uniform, Rate: 0.01, FlitsPerPacket: 4},
			Seed:      1,
		})
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(n)
		perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (k * k)
		if budget := footprintBudget[b.name]; perNode > budget {
			t.Errorf("%s: %.0f B of live heap per node on a %dx%d mesh, budget %.0f", b.name, perNode, k, k, budget)
		} else {
			t.Logf("%s: %.0f B/node (budget %.0f)", b.name, perNode, budget)
		}
	}
}
