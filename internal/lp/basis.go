package lp

import "slices"

// variable statuses inside the simplex.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// Basis is an opaque snapshot of a simplex basis partition: which column is
// basic in each row slot and the bound status of every nonbasic column. A
// Basis comes out of every successful solve (Result.Basis) and can seed a
// later SolveSeeded on a structurally identical problem — the H/G ladder's
// adjacent rungs differ only in one right-hand side, so the previous rung's
// optimum is steps away from the next. A Basis is immutable once returned
// and safe to share across goroutines; the solver copies it before use and
// validates it against the problem's shape, so a stale or foreign basis can
// cost a discarded warm attempt but never a wrong answer.
type Basis struct {
	m, nTotal int
	basic     []int32
	status    []varStatus
}

// snapshotBasis copies the terminal partition out of solver state.
func snapshotBasis(m, nTotal int, basic []int32, status []varStatus) *Basis {
	return &Basis{
		m: m, nTotal: nTotal,
		basic:  append([]int32(nil), basic...),
		status: append([]varStatus(nil), status...),
	}
}

// compatible reports whether the basis shape matches an instance; anything
// else (a basis from the other sequence family, or a stale build) is
// silently unusable as a seed.
func (b *Basis) compatible(in *instance) bool {
	return b != nil && b.m == in.m && b.nTotal == in.nTotal &&
		len(b.basic) == in.m && len(b.status) == in.nTotal
}

// eta is one product-form update of the basis inverse: the pivot at slot r
// replaced B's column r, and applying E⁻¹ to a slot-space vector is
// x[r] /= diag; x[i] -= w_i·x[r]. Entries hold the FTRAN'd entering
// column's nonzeros off the pivot slot, stored in the shared eIdx/eVal
// arena (start:end) so pivots allocate nothing once the arena has grown to
// a solve's working size.
type eta struct {
	slot       int32
	start, end int32
	diag       float64
}

// luFactors is an LU factorization of the basis matrix B (column k is
// A[:,basic[k]]) with partial pivoting, PB = LU, plus a product-form eta
// file appended by pivots since the last refactorization. Columns are
// eliminated sparsest first rather than in slot order: order maps each
// elimination position to the basis slot it factored, so the slots
// themselves never move — ftran scatters its position-space solution back
// through order, btran gathers through it, and the eta file (slot space)
// and every caller holding a slot index across a refactor are unaffected.
// L is unit lower triangular in pivot-position space with subdiagonal
// entries stored by original row; U is stored by position with the
// diagonal split out. Everything is reused across refactorizations to keep
// per-solve allocation flat.
type luFactors struct {
	m int

	order  []int32 // position -> basis slot whose column was eliminated there
	pivRow []int32 // position -> original row chosen as pivot
	posOf  []int32 // original row -> position (inverse of pivRow)

	lPtr  []int32 // L column t: entries lRow/lVal[lPtr[t]:lPtr[t+1]]
	lRow  []int32 // original row of each multiplier
	lVal  []float64
	uPtr  []int32 // U column k: strictly-above-diagonal entries by position
	uPos  []int32
	uVal  []float64
	udiag []float64

	etas []eta
	eIdx []int32 // eta entry arena, shared by every eta
	eVal []float64

	// scratch
	work    []float64 // dense accumulator indexed by original row
	zpos    []float64 // position-space intermediate
	stamp   []int32   // touched-row marker for the accumulator
	touch   []int32   // rows stamped this epoch, in stamping order
	heapBuf []int32   // min-heap of prior pivot positions left to apply
	posMark []int32   // heap-membership marker per position, by epoch
	epoch   int32
}

const (
	// luTinyPivot is the singularity threshold for a factorization pivot:
	// below it the basis is treated as numerically singular.
	luTinyPivot = 1e-11
	// refactorEvery bounds the eta file: after this many pivots the basis
	// is refactorized from the original sparse columns, resetting both
	// FTRAN/BTRAN cost and accumulated floating-point drift.
	refactorEvery = 64
)

func newLUFactors(m int) *luFactors {
	return &luFactors{
		m:       m,
		order:   make([]int32, m),
		pivRow:  make([]int32, m),
		posOf:   make([]int32, m),
		lPtr:    make([]int32, m+1),
		uPtr:    make([]int32, m+1),
		udiag:   make([]float64, m),
		work:    make([]float64, m),
		zpos:    make([]float64, m),
		stamp:   make([]int32, m),
		touch:   make([]int32, 0, m),
		heapBuf: make([]int32, 0, m),
		posMark: make([]int32, m),
	}
}

// factorize rebuilds PB = LU for the given basic columns and clears the eta
// file. Columns are eliminated sparsest first — by nonzero count, ties to
// the lower column index (cmpSparsest) — with partial pivoting (largest
// magnitude, ties to the lowest original row). Putting the dense columns
// last keeps fill out of L: a column with an entry in every row (the G
// LP's z) eliminated early would leave a multiplier in every row for each
// later column to apply, while eliminated last it only collects U entries
// from the pivots already made. The order depends on the basis *set*, not
// on which slot holds which column, and the elimination is deterministic,
// so the factors — and everything solved with them — are a pure function
// of the basis partition, which the canonical-extraction argument leans on.
// Returns false on a singular basis.
func (f *luFactors) factorize(in *instance, basic []int32) bool {
	f.reset()
	for k := range f.order {
		f.order[k] = int32(k)
	}
	slices.SortFunc(f.order, func(a, b int32) int { return in.cmpSparsest(basic[a], basic[b]) })
	for k, slot := range f.order {
		if !f.eliminateColumn(in, basic[slot], k) {
			return false
		}
	}
	return true
}

// reset empties the factors and the eta file ahead of a fresh elimination.
func (f *luFactors) reset() {
	f.etas = f.etas[:0]
	f.eIdx, f.eVal = f.eIdx[:0], f.eVal[:0]
	f.lRow, f.lVal = f.lRow[:0], f.lVal[:0]
	f.uPos, f.uVal = f.uPos[:0], f.uVal[:0]
	for i := range f.posOf {
		f.posOf[i] = -1
	}
}

// cmpSparsest orders columns by nonzero count, ties to the lower index: the
// elimination order of factorize and canonicalBasis.
func (in *instance) cmpSparsest(a, b int32) int {
	na := in.colPtr[a+1] - in.colPtr[a]
	nb := in.colPtr[b+1] - in.colPtr[b]
	if na != nb {
		return int(na - nb)
	}
	return int(a - b)
}

// eliminateColumn runs one left-looking elimination step for column j at
// position k: scatter, apply prior L columns, choose the pivot among
// touched non-pivot rows (largest magnitude, ties to the lowest original
// row — the same deterministic rule a dense ascending scan implements),
// and append the L multipliers in ascending row order so the factors are
// bit-identical to the dense-scan formulation. The touched-row worklist
// keeps the pivot search and the L append proportional to the column's
// fill-in instead of m, which is what makes refactorization cheap for the
// mostly-slack columns of the occurrence-incidence rows. Returns false
// when no pivot clears luTinyPivot; the partial factors are then garbage
// and the caller gives up on this basis.
func (f *luFactors) eliminateColumn(in *instance, j int32, k int) bool {
	f.epoch++
	x := f.work
	touch := f.touch[:0]
	for t := in.colPtr[j]; t < in.colPtr[j+1]; t++ {
		r := in.colRow[t]
		x[r] = in.colVal[t]
		f.stamp[r] = f.epoch
		touch = append(touch, r)
	}
	// Left-looking elimination: apply prior L columns in ascending pivot
	// order, but visit only the positions whose pivot row is actually
	// touched — a min-heap seeded from the scattered rows, fed as L
	// applications introduce fill-in. An L column can only touch pivot rows
	// of *later* positions (its stored rows were non-pivot when it was
	// built), so every heap insertion is above the position being applied
	// and ascending order is preserved; the arithmetic — and the U entry
	// order — is exactly that of the full 0..k sweep, at sparse cost.
	hp := f.heapBuf[:0]
	for _, r := range touch {
		if t := f.posOf[r]; t >= 0 && int(t) < k && f.posMark[t] != f.epoch {
			f.posMark[t] = f.epoch
			hp = heapPushPos(hp, t)
		}
	}
	for len(hp) > 0 {
		var t int32
		t, hp = heapPopPos(hp)
		v := x[f.pivRow[t]]
		if v == 0 {
			continue
		}
		for q := f.lPtr[t]; q < f.lPtr[t+1]; q++ {
			r := f.lRow[q]
			if f.stamp[r] != f.epoch {
				x[r] = 0
				f.stamp[r] = f.epoch
				touch = append(touch, r)
				if tq := f.posOf[r]; tq >= 0 && int(tq) < k && f.posMark[tq] != f.epoch {
					f.posMark[tq] = f.epoch
					hp = heapPushPos(hp, tq)
				}
			}
			x[r] -= v * f.lVal[q]
		}
		f.uPos = append(f.uPos, int32(t))
		f.uVal = append(f.uVal, v)
	}
	f.heapBuf = hp[:0]
	// Pivot: the largest touched non-pivot-row magnitude, ties to the
	// lowest original row.
	bestRow, bestAbs := int32(-1), luTinyPivot
	for _, r := range touch {
		if f.posOf[r] >= 0 {
			continue
		}
		a := x[r]
		if a < 0 {
			a = -a
		}
		if a > bestAbs || (a == bestAbs && bestRow >= 0 && r < bestRow) {
			bestRow, bestAbs = r, a
		}
	}
	f.touch = touch
	if bestRow < 0 {
		return false
	}
	// Ascending row order keeps the L entry order — and hence every
	// sequential BTRAN accumulation — identical to a dense 0..m scan.
	sortInt32(touch)
	diag := x[bestRow]
	f.pivRow[k] = bestRow
	f.posOf[bestRow] = int32(k)
	f.udiag[k] = diag
	f.uPtr[k+1] = int32(len(f.uPos))
	for _, r := range touch {
		if f.posOf[r] >= 0 || r == bestRow {
			continue
		}
		if v := x[r]; v != 0 {
			f.lRow = append(f.lRow, r)
			f.lVal = append(f.lVal, v/diag)
		}
	}
	f.lPtr[k+1] = int32(len(f.lRow))
	return true
}

// sortInt32 orders a touched-row list: insertion sort while the list is
// fill-in sized (a handful of entries, where it beats a general sort by a
// wide margin), the standard sort once fill-in grows past that.
func sortInt32(a []int32) {
	if len(a) > 48 {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// heapPushPos and heapPopPos maintain h as a binary min-heap of pivot
// positions, allocation-free on the caller's scratch slice.
func heapPushPos(h []int32, t int32) []int32 {
	h = append(h, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPopPos(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

// canonicalBasis selects and factors a canonical nonsingular basis for the
// vertex canonicalization (see canonicalizeVertex): the must-be-basic
// interior columns, eliminated sparsest first (cmpSparsest), then — for
// every row those left unpivoted, in ascending row order — that row's
// crash column. A crash column is a +1 unit column (slack or artificial);
// it is not interior (an interior one would have pivoted its row
// already), so it sits at its bound, and it pivots on its own free row
// with no fill, so the completion cannot fail. The selection is a pure function of the interior set
// and the exact matrix A — no solver state leaks in — so any two pivot
// paths that classify a vertex identically choose the identical basis.
// The factors are left in f with position k factoring slot k of the
// returned basis: the canonical LU of the canonical basis, ready for
// canonicalX. Returns ok=false when an interior column fails to pivot
// (numerical trouble: interior columns are independent in every partition
// of the vertex), leaving the factors garbage; the caller refactorizes.
func (f *luFactors) canonicalBasis(in *instance, interior []int32) ([]int32, bool) {
	f.reset()
	chosen := make([]int32, len(interior), f.m)
	copy(chosen, interior)
	slices.SortFunc(chosen, in.cmpSparsest)
	for k, j := range chosen {
		if !f.eliminateColumn(in, j, k) {
			return nil, false
		}
	}
	for r, j := range in.crash {
		if f.posOf[r] < 0 {
			f.eliminateColumn(in, j, len(chosen)) // unit column on a free row: pivots on r
			chosen = append(chosen, j)
		}
	}
	for k := range f.order {
		f.order[k] = int32(k)
	}
	return chosen, true
}

// ftran solves B·x = rhs. rhs is indexed by original row; the solution is
// written to xSlot indexed by basis slot. rhs is left untouched.
func (f *luFactors) ftran(in *instance, rhs []float64, xSlot []float64) {
	m := f.m
	w := f.work
	copy(w, rhs)
	// L solve in pivot order.
	for t := 0; t < m; t++ {
		v := w[f.pivRow[t]]
		if v != 0 {
			for q := f.lPtr[t]; q < f.lPtr[t+1]; q++ {
				w[f.lRow[q]] -= v * f.lVal[q]
			}
		}
		f.zpos[t] = v
	}
	// U back-substitution in position space, scattered to slots by order.
	z := f.zpos
	for k := m - 1; k >= 0; k-- {
		xk := z[k]
		if xk != 0 {
			xk /= f.udiag[k]
		}
		xSlot[f.order[k]] = xk
		if xk != 0 {
			for q := f.uPtr[k]; q < f.uPtr[k+1]; q++ {
				z[f.uPos[q]] -= f.uVal[q] * xk
			}
		}
	}
	// Product-form updates in creation order.
	for e := range f.etas {
		et := &f.etas[e]
		t := xSlot[et.slot] / et.diag
		xSlot[et.slot] = t
		if t != 0 {
			idx, val := f.eIdx[et.start:et.end], f.eVal[et.start:et.end]
			for q, i := range idx {
				xSlot[i] -= val[q] * t
			}
		}
	}
}

// btran solves Bᵀ·y = c. c is indexed by basis slot; the solution is
// written to yRow indexed by original row. c is left untouched.
func (f *luFactors) btran(cSlot []float64, yRow []float64) {
	m := f.m
	v := f.zpos
	copy(v, cSlot)
	// Eta transposes in reverse creation order.
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := v[et.slot]
		idx, val := f.eIdx[et.start:et.end], f.eVal[et.start:et.end]
		for q, i := range idx {
			s -= val[q] * v[i]
		}
		if s != 0 {
			s /= et.diag
		}
		v[et.slot] = s
	}
	// Uᵀ forward solve, gathering slots by order into position space.
	w := f.work[:m]
	for k := 0; k < m; k++ {
		s := v[f.order[k]]
		for q := f.uPtr[k]; q < f.uPtr[k+1]; q++ {
			s -= f.uVal[q] * w[f.uPos[q]]
		}
		// Unit right-hand sides (row pricing) leave most entries exactly
		// zero; skipping the division is worth real time at this call rate.
		if s != 0 {
			s /= f.udiag[k]
		}
		w[k] = s
	}
	// Lᵀ back-substitution, then undo the row permutation.
	for t := m - 1; t >= 0; t-- {
		s := w[t]
		for q := f.lPtr[t]; q < f.lPtr[t+1]; q++ {
			s -= f.lVal[q] * w[f.posOf[f.lRow[q]]]
		}
		w[t] = s
		yRow[f.pivRow[t]] = s
	}
	// w was aliased into yRow via pivRow; positions already consumed in
	// descending order, so the in-place reuse above is safe: w[t] is only
	// read through posOf, which points at positions > t, all finalized.
}

// push appends a product-form update for a pivot at slot r whose FTRAN'd
// entering column (slot space) is w. Reports whether the eta file is due
// for a refactorization.
func (f *luFactors) push(r int, w []float64) bool {
	start := int32(len(f.eIdx))
	for i, v := range w {
		if v != 0 && i != r {
			f.eIdx = append(f.eIdx, int32(i))
			f.eVal = append(f.eVal, v)
		}
	}
	f.etas = append(f.etas, eta{
		slot: int32(r), diag: w[r],
		start: start, end: int32(len(f.eIdx)),
	})
	return len(f.etas) >= refactorEvery
}
