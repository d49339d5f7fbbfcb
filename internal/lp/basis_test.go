package lp

import (
	"math"
	"math/rand"
	"testing"
)

// arrowheadInstance builds an m×m arrowhead system in the shape of the G
// LP's basis: column 0 is dense (z, one entry per participant row), row 0
// is dense (the |f| = i cardinality row), and every other column j adds a
// diagonal entry at row j. Magnitudes make partial pivoting pick row 0 for
// the dense column and row j for column j, so eliminating the dense column
// first fills both factors to ~m²/2 entries.
func arrowheadInstance(m int) *instance {
	p := NewProblem()
	for j := 0; j < m; j++ {
		p.AddVar(1, 0, math.Inf(1))
	}
	rowTerms := make([][]Term, m)
	rowTerms[0] = append(rowTerms[0], Term{0, 4})
	for i := 1; i < m; i++ {
		rowTerms[i] = append(rowTerms[i], Term{0, 1})
	}
	for j := 1; j < m; j++ {
		rowTerms[0] = append(rowTerms[0], Term{j, 1})
		rowTerms[j] = append(rowTerms[j], Term{j, 2})
	}
	for i := 0; i < m; i++ {
		p.AddConstraint(rowTerms[i], EQ, 1)
	}
	return buildInstance(p)
}

func identitySlots(m int) []int32 {
	basic := make([]int32, m)
	for k := range basic {
		basic[k] = int32(k)
	}
	return basic
}

// checkSolves verifies ftran and btran against the basis matrix itself:
// B·x = rhs and Bᵀ·y = c for random right-hand sides.
func checkSolves(t *testing.T, in *instance, f *luFactors, basic []int32) {
	t.Helper()
	m := in.m
	rng := rand.New(rand.NewSource(1))
	rhs := make([]float64, m)
	c := make([]float64, m)
	for i := range rhs {
		rhs[i] = rng.Float64()
		c[i] = rng.Float64()
	}
	x := make([]float64, m)
	f.ftran(in, rhs, x)
	bx := make([]float64, m)
	for k, j := range basic {
		for q := in.colPtr[j]; q < in.colPtr[j+1]; q++ {
			bx[in.colRow[q]] += in.colVal[q] * x[k]
		}
	}
	y := make([]float64, m)
	f.btran(c, y)
	for i := 0; i < m; i++ {
		if math.Abs(bx[i]-rhs[i]) > 1e-9 {
			t.Fatalf("ftran: (B·x)[%d] = %v, want %v", i, bx[i], rhs[i])
		}
	}
	for k, j := range basic {
		if d := in.colDot(y, int(j)); math.Abs(d-c[k]) > 1e-9 {
			t.Fatalf("btran: (Bᵀ·y)[%d] = %v, want %v", k, d, c[k])
		}
	}
}

// TestFactorizeArrowheadFill pins the sparsest-first elimination order on
// the arrowhead: with the dense column in slot 0, the off-diagonal L+U
// entries must stay within 2·nnz(B). Eliminating in slot order fills to
// ~m² instead.
func TestFactorizeArrowheadFill(t *testing.T) {
	const m = 40
	in := arrowheadInstance(m)
	basic := identitySlots(m)
	f := newLUFactors(m)
	if !f.factorize(in, basic) {
		t.Fatal("arrowhead basis reported singular")
	}
	nnzB := 0
	for _, j := range basic {
		nnzB += int(in.colPtr[j+1] - in.colPtr[j])
	}
	if fill := len(f.lRow) + len(f.uPos); fill > 2*nnzB {
		t.Fatalf("off-diagonal nnz(L+U) = %d, want ≤ 2·nnz(B) = %d", fill, 2*nnzB)
	}
	checkSolves(t, in, f, basic)
}

// TestFactorizeSlotOrderInvariant factors one basis in two slot orders and
// requires the per-column solutions of both solves to agree bit for bit:
// the factors depend on the basis set, never on which slot holds which
// column.
func TestFactorizeSlotOrderInvariant(t *testing.T) {
	p := ladderProblem(rand.New(rand.NewSource(11)), 24, 10, 6)
	res, err := p.Solve()
	if err != nil || res.Status != Optimal {
		t.Fatalf("Solve: %v %v", res.Status, err)
	}
	in := buildInstance(p)
	m := in.m
	fwd := res.Basis.basic
	rev := reversedSlots(res.Basis).basic
	fa, fb := newLUFactors(m), newLUFactors(m)
	if !fa.factorize(in, fwd) || !fb.factorize(in, rev) {
		t.Fatal("terminal basis reported singular")
	}
	checkSolves(t, in, fa, fwd)
	rng := rand.New(rand.NewSource(2))
	rhs := make([]float64, m)
	cf, cr := make([]float64, m), make([]float64, m)
	for i := range rhs {
		rhs[i] = rng.Float64()
		cf[i] = rng.Float64()
		cr[m-1-i] = cf[i]
	}
	xa, xb := make([]float64, m), make([]float64, m)
	fa.ftran(in, rhs, xa)
	fb.ftran(in, rhs, xb)
	ya, yb := make([]float64, m), make([]float64, m)
	fa.btran(cf, ya)
	fb.btran(cr, yb)
	for k := 0; k < m; k++ {
		if math.Float64bits(xa[k]) != math.Float64bits(xb[m-1-k]) {
			t.Fatalf("ftran: column %d solves to %v in slot order, %v reversed", fwd[k], xa[k], xb[m-1-k])
		}
		if math.Float64bits(ya[k]) != math.Float64bits(yb[k]) {
			t.Fatalf("btran: row %d solves to %v in slot order, %v reversed", k, ya[k], yb[k])
		}
	}
}

// reversedSlots returns b with its basic columns assigned to the slots in
// reverse order: the same basis partition, differently laid out.
func reversedSlots(b *Basis) *Basis {
	if b == nil {
		return nil
	}
	r := snapshotBasis(b.m, b.nTotal, b.basic, b.status)
	for i, j := 0, len(r.basic)-1; i < j; i, j = i+1, j-1 {
		r.basic[i], r.basic[j] = r.basic[j], r.basic[i]
	}
	return r
}
