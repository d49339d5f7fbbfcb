package lp

import (
	"math"
	"testing"
)

// fuzzReader doles out bytes, yielding 0 once exhausted so every input —
// including a truncated one — decodes to a complete problem.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// decodeFuzzLP turns raw fuzz bytes into a small LP. Every coefficient is a
// dyadic rational (multiple of 1/8) so row arithmetic is exact, zero costs
// and duplicate ratios are common (degeneracy on purpose), and rows are
// built around a quantized interior point x0 so a healthy share of inputs
// is feasible. Wrong-way slack and infinite uppers keep Infeasible and
// Unbounded reachable. When perturb is set, every right-hand side is
// shifted by a small rung-style delta — the shape warm starts exist for.
func decodeFuzzLP(r *fuzzReader, perturb bool) *Problem {
	n := 2 + int(r.byte())%7
	m := 1 + int(r.byte())%6
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		cost := float64(int8(r.byte())) / 8
		hi := 1 + float64(r.byte()%3)
		if r.byte()%5 == 0 {
			hi = math.Inf(1)
		}
		p.AddVar(cost, 0, hi)
		cap := hi
		if math.IsInf(cap, 1) {
			cap = 3
		}
		x0[j] = math.Min(cap, float64(r.byte()%13)/4)
	}
	for i := 0; i < m; i++ {
		sense := []Sense{LE, GE, EQ}[int(r.byte())%3]
		var terms []Term
		lhs := 0.0
		for j := 0; j < n; j++ {
			c := float64(int8(r.byte()) / 16) // −8..7 with many zeros
			if c == 0 {
				continue
			}
			terms = append(terms, Term{j, c})
			lhs += c * x0[j]
		}
		if len(terms) == 0 {
			continue
		}
		slack := float64(r.byte()%9) / 4
		if r.byte()%7 == 0 {
			slack = -slack - 1 // wrong-way slack: likely infeasible
		}
		rhs := lhs
		switch sense {
		case LE:
			rhs += slack
		case GE:
			rhs -= slack
		}
		if perturb {
			rhs += float64(i%3-1) / 4
		}
		p.AddConstraint(terms, sense, rhs)
	}
	return p
}

// FuzzSolver is the differential harness for the sparse revised simplex:
// every input becomes a small LP solved by both the production solver and
// the dense two-phase oracle in reference.go, which must agree on status,
// objective (scale-relative) and feasibility. The same input then becomes a
// perturbed-RHS follow-up problem solved twice — cold, and seeded with the
// first solve's terminal basis — and those two must agree bit for bit,
// which is the warm-start exactness contract under adversarial inputs. A
// third solve seeds from the same basis with its slots reversed: the
// factorization depends on the basis set alone, so slot layout must not
// reach a single bit either.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{})                                   // all-defaults degenerate
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // zero costs, ties everywhere
	f.Add([]byte{3, 2, 8, 1, 1, 4, 248, 2, 2, 6, 2, 100, 40, 0, 90, 3, 1, 250, 30, 60, 5})
	f.Add([]byte{6, 5, 255, 0, 0, 12, 16, 1, 1, 3, 32, 2, 0, 9, 2, 2, 64, 48, 2, 80, 32, 16, 7, 1, 2, 240, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte{2, 3, 200, 1, 5, 0, 100, 1, 0, 8, 2, 32, 32, 4, 1, 2, 224, 224, 0, 2, 2, 16, 240, 8, 0})
	f.Add([]byte{8, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input")
		}
		p := decodeFuzzLP(&fuzzReader{data: data}, false)
		oracle := decodeFuzzLP(&fuzzReader{data: data}, false)
		got, err := p.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want, err := oracle.SolveReference()
		if err != nil {
			t.Fatalf("SolveReference: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v (revised) vs %v (reference)", got.Status, want.Status)
		}
		if got.Status == Optimal {
			scale := math.Max(1, math.Abs(want.Objective))
			if math.Abs(got.Objective-want.Objective) > 1e-6*scale {
				t.Fatalf("objective %v (revised) vs %v (reference)", got.Objective, want.Objective)
			}
			checkFeasible(t, decodeFuzzLP(&fuzzReader{data: data}, false), got.X, "fuzz", 0)
		}

		// Warm-start leg: perturbed RHS, seeded vs cold, bitwise.
		cold, err := decodeFuzzLP(&fuzzReader{data: data}, true).Solve()
		if err != nil {
			t.Fatalf("perturbed cold Solve: %v", err)
		}
		warm, err := decodeFuzzLP(&fuzzReader{data: data}, true).SolveSeeded(got.Basis)
		if err != nil {
			t.Fatalf("perturbed SolveSeeded: %v", err)
		}
		sameBits(t, "perturbed", warm, cold)
		reversed, err := decodeFuzzLP(&fuzzReader{data: data}, true).SolveSeeded(reversedSlots(got.Basis))
		if err != nil {
			t.Fatalf("perturbed SolveSeeded, reversed slots: %v", err)
		}
		sameBits(t, "reversed slots", reversed, cold)
	})
}
