package plan

import (
	"context"
	"testing"

	"recmech/internal/graph"
	"recmech/internal/noise"
	"recmech/internal/trace"
)

// ladderGraph is the 150-node, ~600-edge graph of BenchmarkDeltaCompile:
// large enough that a release runs a ladder of a few dozen LP solves.
func ladderGraph() *graph.Graph {
	return graph.RandomAverageDegree(noise.NewRand(21), 150, 8)
}

// triadicClosure deterministically picks count absent edges u–w whose
// endpoints share a neighbour, so each one closes at least one triangle and
// changes the triangle workload's LP.
func triadicClosure(g *graph.Graph, count int) []graph.Edge {
	var out []graph.Edge
	picked := map[graph.Edge]bool{}
	for u := 0; u < g.NumNodes() && len(out) < count; u += 7 {
		for _, v := range g.Neighbors(u) {
			w := -1
			for _, c := range g.Neighbors(v) {
				e := graph.Edge{U: min(u, c), V: max(u, c)}
				if c != u && !g.HasEdge(u, c) && !picked[e] {
					w = c
					break
				}
			}
			if w >= 0 {
				e := graph.Edge{U: min(u, w), V: max(u, w)}
				picked[e] = true
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// ladderCost is what one traced release's LP ladder did, read from its
// lp.solve spans.
type ladderCost struct {
	solves, warmAttempts, warmApplied, pivots int
}

func (c *ladderCost) add(n *trace.SpanNode) {
	if n.Name == "lp.solve" {
		c.solves++
		if p, ok := n.Attrs["pivots"].(int64); ok {
			c.pivots += int(p)
		}
		switch n.Attrs["warm"] {
		case "applied":
			c.warmAttempts++
			c.warmApplied++
		case "discarded":
			c.warmAttempts++
		}
	}
	for _, ch := range n.Children {
		c.add(ch)
	}
}

// tracedObserved runs one ReleaseObserved under a fresh trace and returns
// the observation and the exported span tree.
func tracedObserved(t *testing.T, p *Plan, eps float64, seed int64) (ReleaseObservation, *trace.TraceData) {
	t.Helper()
	tr := trace.New(trace.Options{})
	root := tr.Start("test")
	obs, err := p.ReleaseObserved(trace.NewContext(context.Background(), root), eps, noise.NewRand(seed))
	if err != nil {
		t.Fatalf("ReleaseObserved: %v", err)
	}
	td, ok := tr.Get(tr.Finish(root))
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if td.Dropped > 0 {
		t.Fatalf("trace dropped %d spans", td.Dropped)
	}
	return obs, td
}

// TestAdvancedReleaseSeedsInGeneration is the stale-seed regression: the
// first release on a plan advanced by a delta that adds matches must warm
// start its ladder from bases of its own generation. Bases inherited from
// the predecessor fit an LP of another shape; the solver rejects every one,
// and preferring them over the release's own seeds ran the whole ladder
// cold. Only the first solve of each family has no basis to start from.
func TestAdvancedReleaseSeedsInGeneration(t *testing.T) {
	ctx := context.Background()
	spec := &Spec{Kind: KindTriangles}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	g := ladderGraph()
	base, err := Compile(Source{Graph: g}, spec)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	// Release the base first so its memo holds solved rungs and bases.
	if _, err := base.ReleaseObserved(ctx, eps, noise.NewRand(5)); err != nil {
		t.Fatal(err)
	}
	delta := triadicClosure(g, 3)
	if len(delta) != 3 {
		t.Fatalf("found %d triadic-closure edges, want 3", len(delta))
	}
	g2 := applied(g, delta, 0)
	adv, prof, err := base.Advance(ctx, Source{Graph: g2}, Delta{Added: delta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Fallback || prof.Identical {
		t.Fatalf("triadic-closure delta should advance incrementally and change the LP: %+v", prof)
	}
	cold, err := Compile(Source{Graph: g2}, spec)
	if err != nil {
		t.Fatal(err)
	}

	advObs, advTrace := tracedObserved(t, adv, eps, 9)
	coldObs, coldTrace := tracedObserved(t, cold, eps, 9)
	var a, c ladderCost
	a.add(advTrace.Root)
	c.add(coldTrace.Root)
	t.Logf("advanced: %+v; cold: %+v", a, c)
	if a.solves == 0 {
		t.Fatal("advanced plan's first release solved nothing")
	}
	if a.warmAttempts < a.solves-4 {
		t.Errorf("advanced release: %d warm attempts in %d solves, want ≥ %d", a.warmAttempts, a.solves, a.solves-4)
	}
	if float64(a.pivots) > 1.25*float64(c.pivots) {
		t.Errorf("advanced release took %d pivots, cold compile's release %d (bound 1.25×)", a.pivots, c.pivots)
	}
	if advObs != coldObs {
		t.Errorf("advanced observation %+v != cold %+v", advObs, coldObs)
	}
	releasesMatch(t, "triadic-closure", adv, cold)
}

// TestReleaseObservedTracesProfile checks where a traced ReleaseObserved
// computes its Theorem 1 bound on a fresh plan: in a profile phase after
// the ladder, whose one G_{|P|} solve starts warm from a G rung the Δ
// search solved, with the bound on the release span as predictedError.
func TestReleaseObservedTracesProfile(t *testing.T) {
	p, err := Compile(Source{Graph: ladderGraph()}, &Spec{Kind: KindTriangles})
	if err != nil {
		t.Fatal(err)
	}
	obs, td := tracedObserved(t, p, 0.5, 42)
	if !obs.PredictedOK {
		t.Fatal("PredictedOK = false on a healthy plan")
	}
	var rel *trace.SpanNode
	for _, ch := range td.Root.Children {
		if ch.Name == "release" {
			rel = ch
		}
	}
	if rel == nil {
		t.Fatal("trace has no release span")
	}
	if got := rel.Attrs["predictedError"]; got != obs.Predicted.Error {
		t.Errorf("release span predictedError = %v, want %v", got, obs.Predicted.Error)
	}
	var phases []string
	var profile *trace.SpanNode
	for _, ch := range rel.Children {
		phases = append(phases, ch.Name)
		if ch.Name == "profile" {
			profile = ch
		}
	}
	want := []string{"delta.search", "x.search", "profile", "noise.draw"}
	if len(phases) != len(want) {
		t.Fatalf("release phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("release phases %v, want %v", phases, want)
		}
	}
	if len(profile.Children) != 1 {
		t.Fatalf("profile phase has %d children, want the one G_{|P|} solve", len(profile.Children))
	}
	sp := profile.Children[0]
	if sp.Name != "lp.solve" || sp.Attrs["seq"] != "g" || sp.Attrs["i"] != int64(p.NumParticipants()) {
		t.Fatalf("profile solve %s %v, want lp.solve of G_%d", sp.Name, sp.Attrs, p.NumParticipants())
	}
	if sp.Attrs["warm"] != "applied" {
		t.Errorf("G_{|P|} solve warm=%v, want applied", sp.Attrs["warm"])
	}
}
