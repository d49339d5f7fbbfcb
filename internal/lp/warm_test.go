package lp

import (
	"math"
	"math/rand"
	"testing"
)

// ladderProblem builds one rung of an H-style LP ladder: sparse random
// occurrence rows shared by every rung, bounded variables, and a
// cardinality EQ row Σx = card whose right-hand side is the only thing
// that varies rung to rung — the structure the warm-start path exists for.
func ladderProblem(rng *rand.Rand, n, m int, card float64) *Problem {
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar(float64(rng.Intn(20))/4, 0, 1)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{j, float64(1 + rng.Intn(3))})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(terms, LE, float64(len(terms))*1.5)
	}
	all := make([]Term, n)
	for j := 0; j < n; j++ {
		all[j] = Term{j, 1}
	}
	p.AddConstraint(all, EQ, card)
	return p
}

// sameBits fails the test unless two results agree bit for bit in status,
// objective and every solution entry — the warm-start exactness contract.
func sameBits(t *testing.T, label string, warm, cold Result) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("%s: status %v (warm) vs %v (cold)", label, warm.Status, cold.Status)
	}
	if math.Float64bits(warm.Objective) != math.Float64bits(cold.Objective) {
		t.Fatalf("%s: objective %x (warm) vs %x (cold)",
			label, math.Float64bits(warm.Objective), math.Float64bits(cold.Objective))
	}
	if len(warm.X) != len(cold.X) {
		t.Fatalf("%s: len(X) %d vs %d", label, len(warm.X), len(cold.X))
	}
	for j := range warm.X {
		if math.Float64bits(warm.X[j]) != math.Float64bits(cold.X[j]) {
			t.Fatalf("%s: X[%d] = %v (warm) vs %v (cold)", label, j, warm.X[j], cold.X[j])
		}
	}
}

// TestWarmLadderBitIdentical walks a 30-rung ladder seeding each solve from
// the previous rung's terminal basis and requires every warm result to be
// bit-identical to an independent cold solve of the same rung. It walks
// twice: with each seed as returned, and with its slots reversed — the
// factorization depends on the basis set alone, so slot layout must reach
// neither a bit nor whether the seed applies.
func TestWarmLadderBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout func(*Basis) *Basis
	}{
		{"as returned", func(b *Basis) *Basis { return b }},
		{"slots reversed", reversedSlots},
	} {
		t.Run(tc.name, func(t *testing.T) { walkWarmLadder(t, tc.layout) })
	}
}

func walkWarmLadder(t *testing.T, layout func(*Basis) *Basis) {
	const n, m = 24, 10
	var seed *Basis
	applied := 0
	for card := 0; card <= 30; card++ {
		// The generator must be re-run identically per rung; rebuild from a
		// fresh rng so both problems match.
		pw := ladderProblem(rand.New(rand.NewSource(7)), n, m, float64(card)/2)
		pc := ladderProblem(rand.New(rand.NewSource(7)), n, m, float64(card)/2)
		warm, err := pw.SolveSeeded(layout(seed))
		if err != nil {
			t.Fatalf("card %d: SolveSeeded: %v", card, err)
		}
		cold, err := pc.Solve()
		if err != nil {
			t.Fatalf("card %d: Solve: %v", card, err)
		}
		sameBits(t, "rung", warm, cold)
		if seed == nil && warm.Warm != WarmNone {
			t.Fatalf("card %d: outcome %v with nil seed", card, warm.Warm)
		}
		if warm.Warm == WarmApplied {
			applied++
		}
		if warm.Status == Optimal {
			if warm.Basis == nil {
				t.Fatalf("card %d: optimal solve returned nil basis", card)
			}
			seed = warm.Basis
		}
	}
	if applied == 0 {
		t.Fatal("no rung applied its warm seed; the ladder test is vacuous")
	}
}

// TestSolveSeededNilSeed pins SolveSeeded(nil) ≡ Solve, outcome WarmNone.
func TestSolveSeededNilSeed(t *testing.T) {
	p1 := ladderProblem(rand.New(rand.NewSource(3)), 16, 7, 4)
	p2 := ladderProblem(rand.New(rand.NewSource(3)), 16, 7, 4)
	a, err := p1.SolveSeeded(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "nil seed", a, b)
	if a.Warm != WarmNone {
		t.Fatalf("outcome = %v, want WarmNone", a.Warm)
	}
}

// TestWarmIncompatibleSeed feeds a basis from a differently shaped problem:
// the shape check must silently fall back to the cold path (WarmNone, no
// warm attempt counted) and still produce the cold bits.
func TestWarmIncompatibleSeed(t *testing.T) {
	small, err := ladderProblem(rand.New(rand.NewSource(5)), 8, 4, 2).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if small.Basis == nil {
		t.Fatal("small problem returned no basis")
	}
	before := ReadCounters()
	p1 := ladderProblem(rand.New(rand.NewSource(6)), 20, 8, 3)
	p2 := ladderProblem(rand.New(rand.NewSource(6)), 20, 8, 3)
	got, err := p1.SolveSeeded(small.Basis)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "incompatible", got, cold)
	if got.Warm != WarmNone {
		t.Fatalf("outcome = %v, want WarmNone", got.Warm)
	}
	after := ReadCounters()
	if after.WarmAttempts != before.WarmAttempts {
		t.Fatalf("incompatible seed counted as a warm attempt")
	}
}

// TestWarmForeignSeed feeds a compatible-shaped basis taken from a solve of
// a *different* random problem. Whether the attempt is applied or
// discarded is the solver's call; the result must be cold-identical either
// way, and the outcome must say which path produced it.
func TestWarmForeignSeed(t *testing.T) {
	foreign, err := ladderProblem(rand.New(rand.NewSource(11)), 20, 8, 5).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if foreign.Basis == nil {
		t.Fatal("foreign problem returned no basis")
	}
	for trial := int64(0); trial < 10; trial++ {
		p1 := ladderProblem(rand.New(rand.NewSource(100+trial)), 20, 8, 6)
		p2 := ladderProblem(rand.New(rand.NewSource(100+trial)), 20, 8, 6)
		got, err := p1.SolveSeeded(foreign.Basis)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cold, err := p2.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameBits(t, "foreign", got, cold)
		if got.Warm != WarmApplied && got.Warm != WarmDiscarded {
			t.Fatalf("trial %d: outcome = %v, want applied or discarded", trial, got.Warm)
		}
	}
}

// TestWarmCounters pins the warm counter trio: attempts = applied +
// discarded over a seeded ladder walk.
func TestWarmCounters(t *testing.T) {
	before := ReadCounters()
	var seed *Basis
	for card := 0; card <= 12; card++ {
		p := ladderProblem(rand.New(rand.NewSource(21)), 18, 8, float64(card))
		res, err := p.SolveSeeded(seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Basis != nil {
			seed = res.Basis
		}
	}
	after := ReadCounters()
	attempts := after.WarmAttempts - before.WarmAttempts
	applied := after.WarmApplied - before.WarmApplied
	discarded := after.WarmDiscarded - before.WarmDiscarded
	if attempts == 0 {
		t.Fatal("no warm attempts recorded")
	}
	if attempts != applied+discarded {
		t.Fatalf("attempts %d != applied %d + discarded %d", attempts, applied, discarded)
	}
}

// TestWarmOutcomeStrings pins the WarmOutcome debug strings used in traces.
func TestWarmOutcomeStrings(t *testing.T) {
	for want, w := range map[string]WarmOutcome{
		"none": WarmNone, "applied": WarmApplied, "discarded": WarmDiscarded, "unknown": WarmOutcome(9),
	} {
		if got := w.String(); got != want {
			t.Errorf("WarmOutcome(%d).String() = %q, want %q", w, got, want)
		}
	}
}
