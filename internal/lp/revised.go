package lp

import (
	"errors"
	"math"
	"sort"
)

// errSingularBasis reports a numerically singular basis factorization —
// like ErrIterationLimit it indicates numerical trouble, not a property of
// the LP. The cold path can hit it only on pathological input (pivot
// admission keeps the basis well-conditioned); a warm attempt that hits it
// silently falls back to the cold path instead.
var errSingularBasis = errors.New("lp: singular basis factorization")

// Warm-start certification margins. A warm-started result is kept only
// when the terminal partition certifies a *strictly unique* optimal vertex
// (every movable nonbasic reduced cost clears warmStrictDual — three orders
// above the working tolerance tolCost, so the margin survives any pivot
// path's roundoff) and the vertex canonicalizes cleanly (canonicalizeVertex:
// every basic value is either within snapLo of a bound or at least snapHi
// inside both, so the degenerate/interior classification is unambiguous
// under roundoff). Anything short of that is discarded and the cold path
// runs; see DESIGN.md "Warm-started simplex".
const (
	warmStrictDual  = 1e-6
	warmDualFeasTol = 1e-7 // seed rejection threshold on dual infeasibility
	snapLo          = 1e-9 // basic value this close to a bound is AT the bound
	snapHi          = 1e-5 // interior basic values must clear both bounds by this
)

// rev is the working state of the sparse revised simplex: the basis
// partition, maintained basic values in slot space, and the LU+eta
// factorization. One rev serves one solve; all slices are private.
type rev struct {
	in *instance
	f  *luFactors

	basic  []int32
	status []varStatus
	ub     []float64 // local copy: artificials get locked after phase 1
	xB     []float64 // basic values by slot
	y      []float64 // dual scratch, row space
	y2     []float64 // secondary dual scratch, row space
	d      []float64 // reduced costs per column
	d2     []float64 // secondary (tie-break) reduced costs per column
	cB     []float64 // slot-space objective scratch
	w      []float64 // FTRAN'd column scratch, slot space
	rowBuf []float64 // row-space scratch (column scatter, canonical rhs)

	candBuf []dualCand // BFRT candidate scratch, reused across dual iterations
	alphaR  []float64  // tableau row-r coefficients cached by the dual pricing scan

	phase1        bool
	sinceRefactor int
	unbounded     bool
	secUnbounded  bool // optimal face has an unbounded secondary ray
	pivots        int
	interrupt     func() error
}

func newRev(in *instance, interrupt func() error) *rev {
	s := &rev{
		in: in, f: newLUFactors(in.m),
		basic:     make([]int32, in.m),
		status:    make([]varStatus, in.nTotal),
		ub:        append([]float64(nil), in.ub...),
		xB:        make([]float64, in.m),
		y:         make([]float64, in.m),
		y2:        make([]float64, in.m),
		d:         make([]float64, in.nTotal),
		d2:        make([]float64, in.nTotal),
		alphaR:    make([]float64, in.nTotal),
		cB:        make([]float64, in.m),
		w:         make([]float64, in.m),
		rowBuf:    make([]float64, in.m),
		interrupt: interrupt,
	}
	return s
}

// resetToCrash (re)installs the all-slack/artificial crash basis, whose
// matrix is the identity by construction.
func (s *rev) resetToCrash() {
	copy(s.basic, s.in.crash)
	for j := range s.status {
		s.status[j] = atLower
	}
	for _, j := range s.basic {
		s.status[j] = basic
	}
	copy(s.ub, s.in.ub)
	s.f.factorize(s.in, s.basic) // identity: cannot fail
	s.sinceRefactor = 0
	s.canonicalX()
}

// cost returns the active objective coefficient of column j.
func (s *rev) cost(j int) float64 {
	if s.phase1 {
		if j >= s.in.firstArt {
			return 1
		}
		return 0
	}
	return s.in.costs[j]
}

// canonicalX recomputes the basic values from first principles:
// x_B = B⁻¹(b − N·x_N), with the nonbasic contribution reduced in CSC
// order. Called at every refactorization and for terminal extraction, it
// makes the reported solution a pure function of the basis partition —
// the keystone of the warm-vs-cold bit-identity argument.
func (s *rev) canonicalX() {
	rhs := s.rowBuf
	copy(rhs, s.in.b)
	in := s.in
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] != atUpper {
			continue // shifted lower bounds are 0: no contribution
		}
		u := s.ub[j]
		if u == 0 {
			continue
		}
		for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
			rhs[in.colRow[k]] -= in.colVal[k] * u
		}
	}
	s.f.ftran(in, rhs, s.xB)
}

// refactor rebuilds the LU factors from the current basis and restores
// canonical basic values. Returns false on a singular basis.
func (s *rev) refactor() bool {
	if !s.f.factorize(s.in, s.basic) {
		return false
	}
	s.sinceRefactor = 0
	s.canonicalX()
	return true
}

// computeDuals prices every column against the current basis: one BTRAN
// for y = B⁻ᵀc_B, then d_j = c_j − y·a_j column-wise over the sparse
// matrix. Basic columns get an exact 0. In phase 2 the secondary tie-break
// objective is priced the same way into d2 (one more BTRAN, shared column
// sweep); phase 1 has no use for it.
func (s *rev) computeDuals() {
	in := s.in
	for i, j := range s.basic {
		s.cB[i] = s.cost(int(j))
	}
	s.f.btran(s.cB, s.y)
	if s.phase1 {
		for j := 0; j < in.nTotal; j++ {
			if s.status[j] == basic {
				s.d[j] = 0
				continue
			}
			s.d[j] = s.cost(j) - in.colDot(s.y, j)
		}
		return
	}
	for i, j := range s.basic {
		s.cB[i] = in.sec[j]
	}
	s.f.btran(s.cB, s.y2)
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] == basic {
			s.d[j] = 0
			s.d2[j] = 0
			continue
		}
		a1, a2 := in.colDot2(s.y, s.y2, j)
		s.d[j] = in.costs[j] - a1
		s.d2[j] = in.sec[j] - a2
	}
}

// chooseEntering returns an improving nonbasic column and its direction
// (+1: increase from lower bound, −1: decrease from upper bound), or
// (-1, 0) at lexicographic optimality. A column improves when its primary
// reduced cost clears tolCost in the moving direction, or — phase 2 only —
// when the primary is a tie (within tolCost) and the secondary reduced cost
// improves: that second class is what walks the optimal face to its unique
// secondary-minimal vertex after the real objective is exhausted. Dantzig
// rule by default (primary candidates always beat secondary ones), Bland's
// rule under degeneracy (lowest improving index across both classes).
func (s *rev) chooseEntering(bland bool) (int, float64) {
	in := s.in
	best, bestScore, bestDir := -1, tolCost, 0.0
	best2, best2Score, best2Dir := -1, tolCost, 0.0
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] == basic {
			continue
		}
		if s.ub[j] <= tolBounds {
			continue // fixed variable or locked artificial: cannot move
		}
		var dir float64
		if s.status[j] == atLower {
			dir = 1
		} else {
			dir = -1
		}
		d := s.d[j] * dir // improving when clearly negative
		if d < -tolCost {
			if bland {
				return j, dir
			}
			if -d > bestScore {
				best, bestScore, bestDir = j, -d, dir
			}
			continue
		}
		if s.phase1 || best >= 0 || d > tolCost {
			continue // not a primary tie, or a primary candidate already won
		}
		if d2 := s.d2[j] * dir; d2 < -tolCost {
			if bland {
				return j, dir
			}
			if -d2 > best2Score {
				best2, best2Score, best2Dir = j, -d2, dir
			}
		}
	}
	if best >= 0 {
		return best, bestDir
	}
	return best2, best2Dir
}

// ftranColumn solves B·w = a_j into s.w via the row-space scratch.
func (s *rev) ftranColumn(j int) {
	in := s.in
	rhs := s.rowBuf
	for i := range rhs {
		rhs[i] = 0
	}
	for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
		rhs[in.colRow[k]] = in.colVal[k]
	}
	s.f.ftran(in, rhs, s.w)
}

// ratioTest computes the maximum step for the FTRAN'd entering column in
// s.w moving in direction dir, the blocking slot (−1 for a bound flip of
// the entering variable itself) and whether the blocking basic leaves at
// its upper bound. Semantics identical to the dense solver's.
func (s *rev) ratioTest(enter int, dir float64) (float64, int, bool) {
	delta := s.ub[enter] // bound-flip distance (may be +inf)
	leaveSlot := -1
	leaveToUpper := false
	bestPivot := 0.0
	for i := 0; i < s.in.m; i++ {
		a := s.w[i]
		if a > -tolPivot && a < tolPivot {
			continue
		}
		rate := a * dir // basic value changes by −rate·δ
		var lim float64
		var toUpper bool
		if rate > 0 {
			// Basic variable decreases toward 0 (its shifted lower bound).
			lim = s.xB[i] / rate
			if lim < 0 {
				lim = 0
			}
		} else {
			ubi := s.ub[s.basic[i]]
			if math.IsInf(ubi, 1) {
				continue
			}
			// Basic variable increases toward its upper bound.
			lim = (ubi - s.xB[i]) / -rate
			if lim < 0 {
				lim = 0
			}
			toUpper = true
		}
		if lim < delta-tolBounds || (lim < delta+tolBounds && math.Abs(a) > bestPivot) {
			delta = lim
			leaveSlot = i
			leaveToUpper = toUpper
			bestPivot = math.Abs(a)
		}
	}
	return delta, leaveSlot, leaveToUpper
}

// applyStep moves the entering variable by delta along s.w, then either
// flips its bound status or pivots it into slot leaveSlot, appending a
// product-form eta (and refactorizing on cadence).
func (s *rev) applyStep(enter int, dir, delta float64, leaveSlot int, leaveToUpper bool) bool {
	if delta > 0 {
		for i := 0; i < s.in.m; i++ {
			if a := s.w[i]; a != 0 {
				s.xB[i] -= a * dir * delta
			}
		}
	}
	var enterVal float64
	if dir > 0 {
		enterVal = delta
	} else {
		enterVal = s.ub[enter] - delta
	}
	if leaveSlot < 0 {
		// Bound flip: the entering variable runs to its other bound.
		if dir > 0 {
			s.status[enter] = atUpper
		} else {
			s.status[enter] = atLower
		}
		return true
	}
	leave := s.basic[leaveSlot]
	if leaveToUpper {
		s.status[leave] = atUpper
	} else {
		s.status[leave] = atLower
	}
	s.basic[leaveSlot] = int32(enter)
	s.status[enter] = basic
	s.xB[leaveSlot] = enterVal
	s.sinceRefactor++
	if s.f.push(leaveSlot, s.w) {
		return s.refactor()
	}
	return true
}

// updateDualsForPivot folds the basis change (entering column enter, pivot
// slot r) into the maintained reduced-cost vector:
// d'_j = d_j − θ·α_j with α the tableau row and θ = d_enter/α_enter. Must
// run against the pre-pivot factors, i.e. before applyStep pushes the eta.
// The entering column's d becomes an exact 0 and the leaving column's an
// exact −θ, which is what keeps the pricing view self-consistent through
// long degenerate stretches — Bland's rule anti-cycles against this
// maintained vector, where a per-iteration recomputation would keep waking
// sub-tolerance noise columns forever.
func (s *rev) updateDualsForPivot(r, enter int) {
	for k := range s.cB {
		s.cB[k] = 0
	}
	s.cB[r] = 1
	s.f.btran(s.cB, s.y)
	s.sweepDualsRow(r, enter, nil)
}

// sweepDualsRow is the sweep half of updateDualsForPivot, for callers (the
// dual simplex loop) that already hold B⁻ᵀe_r in s.y from their own pricing
// and need not pay the BTRAN twice. Same pre-pivot-state contract.
func (s *rev) sweepDualsRow(r, enter int, alphas []float64) {
	in := s.in
	var alphaEnter float64
	if alphas != nil {
		alphaEnter = alphas[enter]
	} else {
		alphaEnter = in.colDot(s.y, enter)
	}
	if alphaEnter > -tolPivot && alphaEnter < tolPivot {
		// Pricing disagrees with the ratio test about the pivot element;
		// fall back to the FTRAN view, which applyStep is about to commit.
		alphaEnter = s.w[r]
	}
	theta := s.d[enter] / alphaEnter
	var theta2 float64
	if !s.phase1 {
		theta2 = s.d2[enter] / alphaEnter
	}
	leave := int(s.basic[r])
	if theta != 0 || theta2 != 0 {
		for j := 0; j < in.nTotal; j++ {
			if s.status[j] == basic {
				continue
			}
			var alpha float64
			if alphas != nil {
				alpha = alphas[j]
			} else {
				alpha = in.colDot(s.y, j)
			}
			if alpha != 0 {
				s.d[j] -= theta * alpha
				s.d2[j] -= theta2 * alpha
			}
		}
	}
	s.d[enter] = 0
	s.d[leave] = -theta
	if !s.phase1 {
		s.d2[enter] = 0
		s.d2[leave] = -theta2
	}
}

// primal runs primal simplex pivots until optimality, unboundedness or the
// iteration cap. Reduced costs are priced canonically once at entry and
// maintained incrementally through every pivot (exactly as the dense
// tableau predecessor did): termination is judged against the maintained
// vector, while the reported solution still comes from a canonical
// refactorization of the terminal partition (see extract).
func (s *rev) primal() (err error) {
	limit := 200*(s.in.m+s.in.nTotal) + 5000
	degenerate := 0
	bland := false
	s.unbounded = false
	s.secUnbounded = false
	iters := 0
	// One batched atomic add per primal call keeps the per-pivot cost free;
	// the counter only needs to be fresh at scrape granularity.
	defer func() {
		pivotsTotal.Add(uint64(iters))
		s.pivots += iters
	}()
	s.computeDuals()
	for iter := 0; iter < limit; iter++ {
		iters = iter
		if s.interrupt != nil && iter%InterruptPollInterval == 0 {
			if err := s.interrupt(); err != nil {
				interruptsTotal.Add(1)
				return err
			}
		}
		enter, dir := s.chooseEntering(bland)
		if enter < 0 {
			return nil // optimal against the maintained reduced costs
		}
		s.ftranColumn(enter)
		delta, leaveSlot, leaveToUpper := s.ratioTest(enter, dir)
		if math.IsInf(delta, 1) {
			if s.phase1 || s.d[enter]*dir < -tolCost {
				s.unbounded = true
				return nil
			}
			// The ray improves only the secondary objective: the primary
			// optimum is reached but the optimal face has no secondary
			// minimizer. Terminal — certification refuses such a vertex,
			// and the cold path stops here deterministically.
			s.secUnbounded = true
			return nil
		}
		if delta <= tolBounds {
			degenerate++
			if degenerate > 2*(s.in.m+1) {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}
		if leaveSlot >= 0 {
			s.updateDualsForPivot(leaveSlot, enter)
		}
		if !s.applyStep(enter, dir, delta, leaveSlot, leaveToUpper) {
			return errSingularBasis
		}
	}
	iters = limit // the loop ran to the cap: every iteration pivoted
	return ErrIterationLimit
}

// evictArtificials pivots basic artificials (at value ≈0 after phase 1) out
// of the basis where possible; rows where no pivot exists are redundant and
// keep a locked artificial at level 0.
func (s *rev) evictArtificials() bool {
	for i := 0; i < s.in.m; i++ {
		if int(s.basic[i]) < s.in.firstArt {
			continue
		}
		// ρ = B⁻ᵀe_i, then α_j = ρ·a_j is tableau row i at column j.
		for k := range s.cB {
			s.cB[k] = 0
		}
		s.cB[i] = 1
		s.f.btran(s.cB, s.y)
		pivotCol := -1
		bestAbs := tolPivot
		for j := 0; j < s.in.firstArt; j++ {
			// Only variables sitting at value 0 may enter without a step,
			// since the redundant basic artificial is itself at level 0.
			if s.status[j] != atLower {
				continue
			}
			if abs := math.Abs(s.in.colDot(s.y, j)); abs > bestAbs {
				pivotCol, bestAbs = j, abs
			}
		}
		if pivotCol < 0 {
			continue // redundant row
		}
		s.ftranColumn(pivotCol)
		old := s.basic[i]
		s.basic[i] = int32(pivotCol)
		s.status[pivotCol] = basic
		s.status[old] = atLower
		s.xB[i] = 0
		s.sinceRefactor++
		if s.f.push(i, s.w) && !s.refactor() {
			return false
		}
	}
	return true
}

// lockArtificials removes every artificial from play after phase 1: upper
// bounds drop to 0 so pricing never readmits one, and nonbasic artificials
// are parked at lower. Basic artificials (redundant rows) stay, pinned at
// level 0 by their bounds.
func (s *rev) lockArtificials() {
	for j := s.in.firstArt; j < s.in.nTotal; j++ {
		s.ub[j] = 0
		if s.status[j] != basic {
			s.status[j] = atLower
		}
	}
}

// extract reports the optimum at the current (terminal) basis from a fresh
// canonical factorization: refactorize, recompute x_B, snap near-bound
// values, and accumulate the objective in column order. Identical basis
// partitions therefore yield identical bits, regardless of the pivot path
// that reached them.
func (s *rev) extract() (Result, error) {
	if s.sinceRefactor != 0 && !s.refactor() {
		return Result{}, errSingularBasis
	}
	in := s.in
	x := make([]float64, in.nStruct)
	for j := 0; j < in.nStruct; j++ {
		switch s.status[j] {
		case atLower:
			x[j] = in.shift[j]
		case atUpper:
			x[j] = in.shift[j] + s.ub[j]
		}
	}
	for i := 0; i < in.m; i++ {
		if j := int(s.basic[i]); j < in.nStruct {
			v := s.xB[i]
			if v < 0 && v > -1e-6 {
				v = 0
			}
			x[j] = in.shift[j] + v
		}
	}
	obj := 0.0
	for j := 0; j < in.nStruct; j++ {
		obj += in.costs[j] * x[j]
	}
	return Result{
		Status:    Optimal,
		Objective: obj,
		X:         x,
		Pivots:    s.pivots,
		Basis:     snapshotBasis(in.m, in.nTotal, s.basic, s.status),
	}, nil
}

// cold runs the two-phase primal simplex from the crash basis.
func (s *rev) cold() (Result, error) {
	s.resetToCrash()
	needPhase1 := false
	for _, j := range s.basic {
		if int(j) >= s.in.firstArt {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		s.phase1 = true
		if err := s.primal(); err != nil {
			return Result{}, err
		}
		infeas := 0.0
		for i, j := range s.basic {
			if int(j) >= s.in.firstArt {
				infeas += s.xB[i]
			}
		}
		if infeas > tolFeas {
			return Result{Status: Infeasible, Pivots: s.pivots}, nil
		}
		if !s.evictArtificials() {
			return Result{}, errSingularBasis
		}
	}
	s.lockArtificials()
	s.phase1 = false
	if err := s.primal(); err != nil {
		return Result{}, err
	}
	if s.unbounded {
		return Result{Status: Unbounded, Pivots: s.pivots}, nil
	}
	// Values are extracted from the canonical partition of the terminal
	// vertex (best-effort) so the bits do not depend on the pivot path
	// taken; when the vertex resists canonicalization the path's own
	// partition stands — deterministic either way, since the cold pivot
	// path is itself a pure function of the problem. The basis handed out
	// for seeding is the pivot path's own terminal partition: unlike the
	// canonical one it is dual feasible, which is what the next rung's
	// dual simplex needs.
	seedB := snapshotBasis(s.in.m, s.in.nTotal, s.basic, s.status)
	s.canonicalizeVertex()
	res, err := s.extract()
	if err == nil {
		res.Basis = seedB
	}
	return res, err
}

// warm attempts a seeded solve: install the seed partition, restore primal
// feasibility with bounded-variable dual simplex (the seed stays dual
// feasible across ladder rungs because only the right-hand side moved),
// polish with primal pivots, then certify strict uniqueness. ok=false means
// the attempt was discarded — the caller falls back to the cold path; only
// interrupt errors propagate, aborting the whole solve.
func (s *rev) warm(seed *Basis) (res Result, ok bool, err error) {
	in := s.in
	copy(s.basic, seed.basic)
	copy(s.status, seed.status)
	copy(s.ub, in.ub)
	// Validate the partition: every slot's basic column must carry basic
	// status and the counts must agree, else the seed is garbage.
	nBasic := 0
	for _, st := range s.status {
		if st == basic {
			nBasic++
		}
	}
	if nBasic != in.m {
		return Result{}, false, nil
	}
	for _, j := range s.basic {
		if j < 0 || int(j) >= in.nTotal || s.status[j] != basic {
			return Result{}, false, nil
		}
	}
	s.lockArtificials()
	if !s.refactor() {
		return Result{}, false, nil
	}
	s.phase1 = false
	s.computeDuals()
	// The seed must be dual feasible (costs are unchanged along a ladder,
	// so it is, up to refactorization roundoff); a wrong-family seed fails
	// here cheaply instead of dragging the dual simplex through it.
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] == basic || s.ub[j] <= tolBounds {
			continue
		}
		if s.status[j] == atLower && s.d[j] < -warmDualFeasTol {
			return Result{}, false, nil
		}
		if s.status[j] == atUpper && s.d[j] > warmDualFeasTol {
			return Result{}, false, nil
		}
	}
	if ok, err := s.dual(); !ok || err != nil {
		return Result{}, false, err
	}
	// Primal polish: usually zero pivots — the dual exit is optimal when
	// dual feasibility held — but refactorization roundoff can leave a
	// sub-tolerance violation for the primal loop to clean up.
	if err := s.primal(); err != nil {
		if errors.Is(err, ErrIterationLimit) || errors.Is(err, errSingularBasis) {
			return Result{}, false, nil
		}
		return Result{}, false, err
	}
	if s.unbounded {
		return Result{}, false, nil
	}
	if !s.certify() {
		return Result{}, false, nil
	}
	// The vertex is certified strictly unique, so the cold path terminates
	// at this same vertex; both sides then canonicalize it to the same
	// partition. A vertex that will not canonicalize (gray-band value)
	// cannot be certified — the cold path would keep its own partition,
	// which this path has no way to reproduce. As in cold, the seeding
	// basis handed out is this path's own dual-feasible terminal partition,
	// not the canonical one.
	seedB := snapshotBasis(s.in.m, s.in.nTotal, s.basic, s.status)
	if !s.canonicalizeVertex() {
		return Result{}, false, nil
	}
	res, exErr := s.extract()
	if exErr != nil {
		return Result{}, false, nil
	}
	res.Basis = seedB
	res.Warm = WarmApplied
	return res, true, nil
}

// dualCand is one sign-eligible entering candidate of a dual ratio test.
type dualCand struct {
	j      int
	alpha  float64 // tableau row-r coefficient of column j
	ratio  float64 // |d_j / α_j|
	ratio2 float64 // |d2_j / α_j| — lexicographic tie-break
}

// dualEligible reports whether a nonbasic column with tableau row
// coefficient alpha can repair the leaving row's violation: a basic below
// its lower bound (above=false) must increase, which an atLower entering
// variable does when α < 0 and an atUpper one (moving down) when α > 0;
// the signs mirror for a basic above its upper bound.
func dualEligible(st varStatus, alpha float64, above bool) bool {
	if !above {
		return (st == atLower && alpha < -tolPivot) ||
			(st == atUpper && alpha > tolPivot)
	}
	return (st == atLower && alpha > tolPivot) ||
		(st == atUpper && alpha < -tolPivot)
}

// dualCands collects every sign-eligible nonbasic candidate of the current
// leaving row, sorted by ratio ascending — ties prefer the larger |α|
// (stability), then the lower column index, so the BFRT walk order is
// deterministic. s.y must hold the BTRAN of e_r and s.d the current reduced
// costs. The backing array is per-solve scratch, reused across iterations.
func (s *rev) dualCands(above bool) []dualCand {
	in := s.in
	cands := s.candBuf[:0]
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] == basic || s.ub[j] <= tolBounds {
			continue
		}
		alpha := s.alphaR[j] // cached by the pricing scan of this same row
		if !dualEligible(s.status[j], alpha, above) {
			continue
		}
		cands = append(cands, dualCand{
			j: j, alpha: alpha,
			ratio:  math.Abs(s.d[j] / alpha),
			ratio2: math.Abs(s.d2[j] / alpha),
		})
	}
	s.candBuf = cands
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.ratio != cb.ratio {
			return ca.ratio < cb.ratio
		}
		if ca.ratio2 != cb.ratio2 {
			return ca.ratio2 < cb.ratio2
		}
		aa, ab := math.Abs(ca.alpha), math.Abs(cb.alpha)
		if aa != ab {
			return aa > ab
		}
		return ca.j < cb.j
	})
	return cands
}

// dual runs bounded-variable dual simplex pivots until primal feasibility.
// ok=false discards the warm attempt (no eligible pivot — the new LP may
// simply be infeasible, which the cold path will decide — a long-step case
// this implementation doesn't take, numerical trouble, or the iteration
// cap); only interrupt errors are returned.
func (s *rev) dual() (ok bool, err error) {
	in := s.in
	limit := 2*in.m + 200
	iters := 0
	defer func() {
		pivotsTotal.Add(uint64(iters))
		s.pivots += iters
	}()
	// Reduced costs were priced canonically by warm()'s dual-feasibility
	// precheck just before this call; from here they are maintained
	// incrementally through every pivot (bound flips leave them untouched —
	// the basis does not change), exactly as the primal loop maintains its
	// own. Only the certification at the end judges anything against a
	// canonical recomputation.
	for iter := 0; iter < limit; iter++ {
		iters = iter
		if s.interrupt != nil && iter%InterruptPollInterval == 0 {
			if err := s.interrupt(); err != nil {
				interruptsTotal.Add(1)
				return false, err
			}
		}
		// Leaving slot: the most primal-infeasible basic variable.
		r, worst, above := -1, tolFeas, false
		for i := 0; i < in.m; i++ {
			if v := -s.xB[i]; v > worst {
				r, worst, above = i, v, false
			}
			if u := s.ub[s.basic[i]]; !math.IsInf(u, 1) {
				if v := s.xB[i] - u; v > worst {
					r, worst, above = i, v, true
				}
			}
		}
		if r < 0 {
			// Primal feasible on the maintained iterate. No verification
			// refactor here: the certify → canonicalizeVertex → extract
			// chain refactorizes canonically anyway and discards the
			// attempt on any violation, so an extra rebuild would only
			// duplicate work on the happy path.
			return true, nil
		}
		// ρ = B⁻ᵀe_r: tableau row r, priced column-wise below.
		for k := range s.cB {
			s.cB[k] = 0
		}
		s.cB[r] = 1
		s.f.btran(s.cB, s.y)
		var bound float64
		if above {
			bound = s.ub[s.basic[r]]
		}
		need := bound - s.xB[r]
		// Fast path: plain dual ratio test — one scan, no allocation. Among
		// sign-eligible nonbasics the smallest |d_j/α_j| keeps every reduced
		// cost on its feasible side after the pivot. Primary ratios tie
		// constantly on the ladder's degenerate faces (many d_j are exactly
		// zero), and the tie-break matters: preferring the smallest
		// secondary ratio |d2_j/α_j| steers the dual walk toward the
		// lexicographic optimum the primal polish would otherwise have to
		// reach pivot by pivot. Remaining ties prefer the larger |α|
		// (stability), then the lower column index.
		enter, bestRatio, bestRatio2, bestAbs := -1, math.Inf(1), math.Inf(1), 0.0
		var bestAlpha float64
		for j := 0; j < in.nTotal; j++ {
			if s.status[j] == basic {
				continue
			}
			alpha := in.colDot(s.y, j)
			s.alphaR[j] = alpha // cached for the post-pivot dual sweep
			if s.ub[j] <= tolBounds {
				continue
			}
			if !dualEligible(s.status[j], alpha, above) {
				continue
			}
			ratio := math.Abs(s.d[j] / alpha)
			ratio2 := math.Abs(s.d2[j] / alpha)
			abs := math.Abs(alpha)
			better := ratio < bestRatio
			if ratio == bestRatio {
				better = ratio2 < bestRatio2 ||
					(ratio2 == bestRatio2 && abs > bestAbs)
			}
			if better {
				enter, bestRatio, bestRatio2, bestAbs, bestAlpha = j, ratio, ratio2, abs, alpha
			}
		}
		if enter < 0 {
			return false, nil
		}
		if capAbs := math.Abs(bestAlpha) * s.ub[enter]; capAbs+tolBounds < math.Abs(need) {
			// Bound-flipping dual ratio test (BFRT). A ladder seed can sit
			// dozens of cardinality units from the new right-hand side while
			// every f column absorbs at most its bound range of 1: the
			// minimum-ratio column blows through its own bound. The standard
			// remedy is to *flip* such a column to its other bound — the dual
			// step carries its reduced cost across zero, so the opposite
			// bound becomes the dual-feasible side — absorbing |α_j|·u_j of
			// the infeasibility, and to keep walking candidates in ratio
			// order until the remainder fits inside one column's range; that
			// column enters. One BFRT iteration thus absorbs a whole wave of
			// flips that plain dual simplex would spend a pivot each on.
			// Flips do not change the basis, so the maintained reduced costs
			// stand. Every eligible candidate moves x_B[r] toward its bound,
			// so absorbed magnitudes simply add up.
			cands := s.dualCands(above)
			remAbs := math.Abs(need)
			enter = -1
			for _, c := range cands {
				capAbs := math.Inf(1)
				if u := s.ub[c.j]; !math.IsInf(u, 1) {
					capAbs = math.Abs(c.alpha) * u
				}
				if remAbs <= capAbs+tolBounds {
					enter, bestAlpha = c.j, c.alpha
					break
				}
				// Flip: the candidate walks its full range to the other bound.
				s.ftranColumn(c.j)
				dirF := 1.0
				if s.status[c.j] == atUpper {
					dirF = -1
				}
				u := s.ub[c.j]
				for i := 0; i < in.m; i++ {
					if a := s.w[i]; a != 0 {
						s.xB[i] -= a * dirF * u
					}
				}
				if s.status[c.j] == atLower {
					s.status[c.j] = atUpper
				} else {
					s.status[c.j] = atLower
				}
				remAbs -= capAbs
			}
			if enter < 0 {
				// Every candidate flipped and infeasibility remains: the row
				// cannot be repaired from this seed — let cold decide.
				return false, nil
			}
			need = bound - s.xB[r]
		}
		// Step length: drive x_B[r] exactly onto its violated bound.
		var t, dir float64
		if s.status[enter] == atLower {
			dir = 1
			t = -need / bestAlpha
		} else {
			dir = -1
			t = need / bestAlpha
		}
		if t < 0 {
			t = 0
		}
		if t > s.ub[enter]+tolBounds {
			return false, nil // flips overshot numerically: bail to cold
		}
		s.ftranColumn(enter)
		if math.Abs(s.w[r]) < tolPivot {
			return false, nil // factored row disagrees with pricing: bail
		}
		// Fold the pivot into the maintained reduced costs while s.y still
		// holds B⁻ᵀe_r and slot r still names the leaving column. Bound
		// flips change neither y nor any α, so the pricing scan's cached
		// row coefficients are still exact — the sweep reuses them instead
		// of paying a second pass of column dot products.
		s.sweepDualsRow(r, enter, s.alphaR)
		for i := 0; i < in.m; i++ {
			if a := s.w[i]; a != 0 {
				s.xB[i] -= a * dir * t
			}
		}
		var enterVal float64
		if dir > 0 {
			enterVal = t
		} else {
			enterVal = s.ub[enter] - t
		}
		leave := s.basic[r]
		if above {
			s.status[leave] = atUpper
		} else {
			s.status[leave] = atLower
		}
		s.basic[r] = int32(enter)
		s.status[enter] = basic
		s.xB[r] = enterVal
		s.sinceRefactor++
		if s.f.push(r, s.w) && !s.refactor() {
			return false, nil
		}
	}
	return false, nil // cap: cycling or a hopeless seed — let cold decide
}

// certify checks, against a fresh canonical factorization, that the
// terminal partition's *vertex* is the strictly unique lexicographic
// optimum: every movable nonbasic reduced cost either clears warmStrictDual
// on the primary objective, or is an exact primary tie (within tolCost)
// whose secondary reduced cost clears warmStrictDual. Fix the nonbasics at
// their bounds and the basics are determined by B⁻¹, so any other feasible
// point moves some nonbasic off its bound and pays strictly more — in the
// primary objective, or in the secondary at equal primary. The cold path
// optimizes the same lexicographic pair, so it terminates at this exact
// vertex; the partition representing it need not be unique —
// canonicalizeVertex handles that.
func (s *rev) certify() bool {
	if s.secUnbounded {
		return false
	}
	if s.sinceRefactor != 0 && !s.refactor() {
		return false
	}
	s.computeDuals()
	in := s.in
	for i := 0; i < in.m; i++ {
		if v := s.xB[i]; v < -tolFeas {
			return false
		}
	}
	for j := 0; j < in.nTotal; j++ {
		if s.status[j] == basic || s.ub[j] <= tolBounds {
			continue
		}
		dir := 1.0
		if s.status[j] == atUpper {
			dir = -1
		}
		d := s.d[j] * dir
		if d >= warmStrictDual {
			continue
		}
		if d < -tolCost || d > tolCost {
			return false // suboptimal, or primary margin in the gray zone
		}
		if s.d2[j]*dir < warmStrictDual {
			return false
		}
	}
	return true
}

// canonicalizeVertex rewrites the terminal partition into the canonical
// partition of the terminal vertex: classify every column against the
// vertex values (nonbasics sit at their bound; basics are interior, or
// snapped to a bound they are within snapLo of), then rebuild the basis as
// the interior columns plus the crash columns of the rows they leave
// unpivoted (canonicalBasis) — a selection that depends only on the
// classification and the exact matrix A, never on the pivot path that
// reached the vertex. Cold and warm solves that terminate at the same
// vertex therefore extract from the same partition, which is what makes
// their reported values bit-identical even under primal degeneracy.
//
// Best-effort: returns false (leaving the partition untouched, factors
// restored) when a basic value falls in the gray band between snapLo and
// snapHi — where roundoff could classify the two paths differently — or on
// numerical trouble. The caller treats that as "keep the path's own
// partition" (cold) or "discard the warm attempt" (warm).
func (s *rev) canonicalizeVertex() bool {
	if s.sinceRefactor != 0 && !s.refactor() {
		return false
	}
	in := s.in
	// Classify basics by slot, recording interior columns and the bound
	// side of degenerate (at-bound) ones.
	interior := make([]int32, 0, in.m)
	side := make([]varStatus, in.nTotal) // valid only for at-bound basics
	for i := 0; i < in.m; i++ {
		j := s.basic[i]
		v := s.xB[i]
		u := s.ub[j]
		nearLo := v < snapLo
		nearUp := !math.IsInf(u, 1) && v > u-snapLo
		switch {
		case v < -tolFeas || (!math.IsInf(u, 1) && v > u+tolFeas):
			return false // not actually feasible: bail
		case nearLo:
			side[j] = atLower
		case nearUp:
			side[j] = atUpper
		case v < snapHi || (!math.IsInf(u, 1) && v > u-snapHi):
			return false // gray band: classification would be fragile
		default:
			interior = append(interior, j)
		}
	}
	// Interior columns are basic in every partition of this vertex, so they
	// are independent and canonicalBasis must accept them all. The classify
	// loop above visits them in the pivot path's slot order; canonicalBasis
	// sorts them itself, so the ordered basis — and with it the roundoff in
	// the extracted values — is a pure function of the vertex. It reuses
	// the factor storage, so the current factors are garbage from here
	// until the next refactor — mark them stale.
	s.sinceRefactor++
	chosen, ok := s.f.canonicalBasis(in, interior)
	if !ok {
		s.refactor()
		return false
	}
	for j := range s.status {
		if s.status[j] == basic {
			s.status[j] = side[j]
		}
	}
	copy(s.basic, chosen)
	for _, j := range s.basic {
		s.status[j] = basic
	}
	// canonicalBasis left the canonical LU of the canonical basis in f (its
	// own elimination order, a pure function of the basis like factorize's)
	// — no refactorization needed, only the canonical recomputation of the
	// basic values against it.
	s.sinceRefactor = 0
	s.canonicalX()
	return true
}

// Solve runs the sparse revised simplex cold (two-phase, from the crash
// basis) and returns the optimum, or a Result with Status
// Infeasible/Unbounded. Lower bounds must be finite (they are in every LP
// this repository builds). Equivalent to SolveSeeded(nil).
func (p *Problem) Solve() (Result, error) {
	return p.SolveSeeded(nil)
}

// SolveSeeded is Solve with an optional warm-start basis, typically the
// Basis carried out of a structurally identical problem's Result. A nil or
// incompatible seed runs the cold path. A compatible seed is attempted via
// dual simplex and kept only when the terminal basis certifies a strictly
// unique optimum — so the returned values are bit-identical to what the
// cold path computes, and Result.Warm reports whether the seed was applied
// or discarded. An interrupt error aborts the solve either way.
func (p *Problem) SolveSeeded(seed *Basis) (Result, error) {
	for _, l := range p.lower {
		if math.IsInf(l, -1) {
			panic("lp: free variables (lower = -inf) are not supported")
		}
	}
	solvesTotal.Add(1)
	in := buildInstance(p)
	s := newRev(in, p.interrupt)
	outcome := WarmNone
	if seed.compatible(in) {
		warmAttemptsTotal.Add(1)
		res, ok, err := s.warm(seed)
		if err != nil {
			return Result{}, err
		}
		if ok {
			warmAppliedTotal.Add(1)
			return res, nil
		}
		warmDiscardedTotal.Add(1)
		outcome = WarmDiscarded
	}
	res, err := s.cold()
	res.Warm = outcome
	return res, err
}
