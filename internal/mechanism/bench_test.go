package mechanism

import (
	"testing"

	"recmech/internal/graph"
	"recmech/internal/krel"
	"recmech/internal/lp"
	"recmech/internal/noise"
	"recmech/internal/subgraph"
)

// BenchmarkGLadder is the lp/ladder layer on its own: the G solves of the
// Δ search (Prepare) on a 150-node node-private triangles workload, each
// seeded from its nearest solved rung, serially on a fresh Core per
// iteration. No enumeration, plan memo or pool runs inside the timer. It
// reports the solves per search, the pivots per solve and the share of
// seeds applied, so a speedup can be told apart from a change of path.
func BenchmarkGLadder(b *testing.B) {
	g := graph.RandomAverageDegree(noise.NewRand(21), 150, 8)
	eff, err := NewEfficientFromSensitive(subgraph.TriangleRelation(g, subgraph.NodePrivacy), krel.CountQuery)
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams(0.5, true)
	b.ReportAllocs()
	before := lp.ReadCounters()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		core, err := NewCore(eff, params)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Prepare(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := lp.ReadCounters()
	solves := float64(after.Solves - before.Solves)
	b.ReportMetric(solves/float64(b.N), "solves/op")
	b.ReportMetric(float64(after.Pivots-before.Pivots)/solves, "pivots/solve")
	if attempts := after.WarmAttempts - before.WarmAttempts; attempts > 0 {
		b.ReportMetric(float64(after.WarmApplied-before.WarmApplied)/float64(attempts), "warm-applied")
	}
}
