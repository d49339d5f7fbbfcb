package mechanism

import (
	"fmt"
	"math"
	"math/rand"

	"recmech/internal/lp"
	"recmech/internal/noise"
)

// Sequences exposes the recursive sequence H and its g-bounding sequence G
// for one sensitive database. Implementations must satisfy Definition 17/18:
// H and G are recursive sequences with H_{|P|} equal to the true answer, and
// H_j ≤ H_i + (|P|−i)·G_k for k = |P|−⌊(|P|−j)/g⌋.
//
// Both accessors must be deterministic (they are consulted by the noise-free
// part of the mechanism) and may be expensive; Core memoizes every call.
type Sequences interface {
	// NumParticipants returns |P|.
	NumParticipants() int
	// H returns H_i for 0 ≤ i ≤ |P|.
	H(i int) (float64, error)
	// G returns G_i for 0 ≤ i ≤ |P|.
	G(i int) (float64, error)
}

// SeededSequences is the optional Sequences extension the warm-start path
// uses when the implementation offers it (Efficient does, as does the plan
// layer's cross-release memo): the same H/G values plus basis handoff — the
// caller passes the terminal simplex basis of a neighbouring rung's solve
// and receives this solve's own terminal basis. The ladder of H_i (and G_i)
// LPs differs rung to rung only in the cardinality right-hand side, so a
// neighbouring basis stays dual feasible and a dual-simplex warm start
// replaces phase 1 from scratch. Seeds are a pure performance channel:
// values must be bit-identical whatever basis is offered (lp.SolveSeeded's
// certified-or-discard contract), so Core threads bases wherever it can and
// never thinks about them again.
type SeededSequences interface {
	Sequences
	// HSeeded returns H_i, warm-started from seed when non-nil, plus the
	// solve's terminal basis (nil when the entry short-circuits or was
	// served from a memo).
	HSeeded(i int, seed *lp.Basis) (float64, *lp.Basis, error)
	// GSeeded is HSeeded for G_i.
	GSeeded(i int, seed *lp.Basis) (float64, *lp.Basis, error)
}

// MemoSequences is the optional Sequences extension of implementations that
// memoize across Cores (the plan layer's cross-release memo): Memo reports
// H_i (isH) or G_i when it is already computed, without computing it. A
// wave takes such rungs before it counts misses, so a wave whose rungs are
// all memoized neither solves nor reaches the fanout.
type MemoSequences interface {
	Memo(isH bool, i int) (float64, bool)
}

// FanoutSequences is the optional Sequences extension of implementations
// that carry their own wave executor. Core builds it at most once, the
// first time a wave has two or more misses and no SetFanout was installed,
// so a release served from memos never pays for one.
type FanoutSequences interface {
	Fanout() Fanout
}

// Fanout executes n independent tasks, possibly concurrently, returning
// after all have finished; a non-nil error must be the error of the
// lowest-index failing task (see pool.Pool.Map, whose Fanout adapter is the
// production implementation). Core uses it to evaluate a wave of ladder
// probes — independent H_i/G_i LP solves — in parallel. A nil Fanout means
// waves are evaluated serially in index order.
type Fanout func(n int, task func(i int) error) error

// ladderWave is the number of probe points evaluated per round of the Δ
// search (Prepare) and the X minimization (XGiven). It is a fixed
// constant, deliberately independent of how many workers execute a wave,
// and both searches follow one probe schedule whether or not a fanout is
// installed: their exactness arguments lean on monotonicity/convexity of
// *computed* sequence values, which the LP solver only approximately
// preserves, so a mode-dependent schedule could let a sub-tolerance
// inversion steer the two modes to different answers. One schedule
// everywhere is what makes every output bit-identical across every
// -compile-parallelism; parallelism only ever changes wall-clock overlap.
const ladderWave = 4

// Core runs the recursive mechanism framework of §4.1 over any Sequences
// implementation. A Core is prepared once per database (computing the
// deterministic Δ) and can then produce any number of independent releases —
// each release costs the same privacy budget; the sharing only saves
// computation in experiments that study the error distribution.
//
// A Core itself is single-goroutine (one Core per release); with SetFanout
// it fans each wave of independent sequence probes across a compute pool,
// which requires seq's accessors to be safe for concurrent calls (Efficient
// and any read-only memo wrapper are).
type Core struct {
	seq    Sequences
	seeded SeededSequences // seq's seeded view, nil when it has none
	shared MemoSequences   // seq's memo view, nil when it has none
	warm   bool            // thread warm-start bases through the ladder

	params Params
	fan    Fanout
	fanSrc FanoutSequences // builds fan on first need; nil once consulted

	hMemo map[int]float64
	gMemo map[int]float64

	// Rung-keyed bases for warm starting: the terminal basis of every H
	// (resp. G) solve so far, keyed by ladder index, so a new rung seeds
	// from the *nearest* solved rung — the Δ/X searches probe in jumps, and
	// the dual-simplex distance grows with the right-hand-side gap, so
	// nearest beats most-recent by a wide pivot margin. The two families
	// are never mixed — the G LP has extra rows and columns, which the
	// solver's compatibility check would reject anyway. Owned by the
	// coordinating goroutine: probeWave hands pre-wave lookups to every
	// miss in a wave and folds returned bases back in afterwards, so fanned
	// waves never race on them.
	// Allocated lazily on the first retained basis: a fully memoized
	// release ladder never solves, and the prepared hot path's allocation
	// budget is pinned in CI.
	hBases map[int]*lp.Basis
	gBases map[int]*lp.Basis

	// seedScratch backs probeWave's per-wave seed lookups. A local buffer
	// would escape — the fan-out closure captures the slice — and charge
	// every wave of a prepared release one heap allocation; as a field it
	// rides along in the Core's own allocation. Owned by the coordinating
	// goroutine, like the basis maps.
	seedScratch [waveMax]*lp.Basis

	delta      float64
	deltaIndex int // the i with Δ = e^{iβ}θ
	prepared   bool
}

// NewCore wraps seq with the given parameters.
func NewCore(seq Sequences, params Params) (*Core, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		seq:    seq,
		warm:   true,
		params: params,
		hMemo:  make(map[int]float64),
		gMemo:  make(map[int]float64),
	}
	c.seeded, _ = seq.(SeededSequences)
	c.shared, _ = seq.(MemoSequences)
	c.fanSrc, _ = seq.(FanoutSequences)
	return c, nil
}

// SetWarmStart enables or disables warm-start basis handoff between ladder
// solves (default on). Off means every solve runs the cold path, the A/B
// baseline: by the solver's exactness contract this changes pivot counts
// and wall-clock only, never a computed value.
func (c *Core) SetWarmStart(on bool) { c.warm = on }

func (c *Core) h(i int) (float64, error) {
	if v, ok := c.hMemo[i]; ok {
		return v, nil
	}
	v, b, err := c.evalSeqSeeded(true, i, c.nearestBasis(true, i))
	if err != nil {
		return 0, err
	}
	if b != nil {
		if c.hBases == nil {
			c.hBases = make(map[int]*lp.Basis)
		}
		c.hBases[i] = b
	}
	c.hMemo[i] = v
	return v, nil
}

func (c *Core) g(i int) (float64, error) {
	if v, ok := c.gMemo[i]; ok {
		return v, nil
	}
	v, b, err := c.evalSeqSeeded(false, i, c.nearestBasis(false, i))
	if err != nil {
		return 0, err
	}
	if b != nil {
		if c.gBases == nil {
			c.gBases = make(map[int]*lp.Basis)
		}
		c.gBases[i] = b
	}
	c.gMemo[i] = v
	return v, nil
}

// nearestBasis returns the retained basis of the solved rung nearest to i
// in the requested family (ties to the lower rung), or nil when none is
// retained yet. The map scan is deterministic despite Go's randomized map
// order because the (distance, rung) comparison totally orders candidates;
// the maps hold a few dozen entries at most, so a scan beats keeping a
// sorted index.
func (c *Core) nearestBasis(isH bool, i int) *lp.Basis {
	m := c.gBases
	if isH {
		m = c.hBases
	}
	var best *lp.Basis
	bestDist, bestRung := 0, 0
	for k, b := range m {
		d := k - i
		if d < 0 {
			d = -d
		}
		if best == nil || d < bestDist || (d == bestDist && k < bestRung) {
			best, bestDist, bestRung = b, d, k
		}
	}
	return best
}

// SetFanout installs the wave executor used by Prepare and XGiven. Set it
// before the first Prepare/Release; a nil fanout (the default, unless seq
// supplies one as a FanoutSequences) evaluates waves serially. The
// sequences must tolerate concurrent H/G calls once a fanout is installed.
func (c *Core) SetFanout(f Fanout) { c.fan, c.fanSrc = f, nil }

// fanout returns the wave executor, building seq's on first need.
func (c *Core) fanout() Fanout {
	if c.fanSrc != nil {
		c.fan, c.fanSrc = c.fanSrc.Fanout(), nil
	}
	return c.fan
}

// waveMax bounds how many indices one probe wave can carry: the XGiven
// endgame scans a bracket of up to ladderWave+2 candidates.
const waveMax = ladderWave + 2

// probeWave evaluates H (isH) or G at every index in idxs (≤ waveMax of
// them), filling vals[k] for idxs[k]. Indices already memoized — in this
// Core or in seq's shared memo — are served from there. Two or more misses
// are fanned out; a lone miss, or any without a fanout, is evaluated
// serially in index order on a zero-allocation path. Results are merged
// into the memo afterwards from the coordinating goroutine, so the memo
// maps are never written concurrently. Which values come out depends only
// on idxs, never on the fanout, keeping parallel and sequential execution
// bit-identical.
func (c *Core) probeWave(isH bool, idxs []int, vals []float64) error {
	memo := c.gMemo
	if isH {
		memo = c.hMemo
	}
	var missBuf [waveMax]int
	miss := missBuf[:0]
	for k, i := range idxs {
		v, ok := memo[i]
		if !ok && c.shared != nil {
			if v, ok = c.shared.Memo(isH, i); ok {
				memo[i] = v
			}
		}
		if ok {
			vals[k] = v
		} else {
			miss = append(miss, k)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	// Warm-start seeding: every miss in the wave is offered the nearest
	// solved rung's basis as the maps stood *before* the wave, and
	// afterwards each returned basis is retained under its own rung. The
	// rule is deliberately fanout-independent — a serial wave could chain
	// miss k's basis into miss k+1, but the parallel branch cannot, and one
	// rule for both keeps the seed (hence pivot-count) telemetry identical
	// across -compile-parallelism, just like the values themselves.
	seeds := c.seedScratch[:len(miss)]
	for m, k := range miss {
		seeds[m] = c.nearestBasis(isH, idxs[k])
	}
	var basisBuf [waveMax]*lp.Basis
	bases := basisBuf[:len(miss)]
	if len(miss) == 1 || c.fanout() == nil {
		for m, k := range miss {
			v, b, err := c.evalSeqSeeded(isH, idxs[k], seeds[m])
			if err != nil {
				return err
			}
			vals[k] = v
			bases[m] = b
		}
	} else {
		// Fresh copies keep the caller's stack buffers from escaping into
		// the closure; this is the parallel branch, where a few small
		// allocations are noise next to the LP solves being overlapped.
		missIdx := make([]int, len(miss))
		missVals := make([]float64, len(miss))
		missBases := make([]*lp.Basis, len(miss))
		for m, k := range miss {
			missIdx[m] = idxs[k]
		}
		err := c.fan(len(missIdx), func(m int) error {
			v, b, err := c.evalSeqSeeded(isH, missIdx[m], seeds[m])
			if err != nil {
				return err
			}
			missVals[m] = v
			missBases[m] = b
			return nil
		})
		if err != nil {
			return err
		}
		for m, k := range miss {
			vals[k] = missVals[m]
			bases[m] = missBases[m]
		}
	}
	for m, k := range miss {
		if bases[m] == nil {
			continue
		}
		if isH {
			if c.hBases == nil {
				c.hBases = make(map[int]*lp.Basis)
			}
			c.hBases[idxs[k]] = bases[m]
		} else {
			if c.gBases == nil {
				c.gBases = make(map[int]*lp.Basis)
			}
			c.gBases[idxs[k]] = bases[m]
		}
	}
	for _, k := range miss {
		memo[idxs[k]] = vals[k]
	}
	return nil
}

// evalSeqSeeded evaluates one sequence entry with the standard error
// wrapping, threading the warm-start seed through when seq offers the
// seeded view and warm starting is on. The returned basis is nil on the
// unseeded path (or when the entry produced none).
func (c *Core) evalSeqSeeded(isH bool, i int, seed *lp.Basis) (float64, *lp.Basis, error) {
	name := "G"
	if isH {
		name = "H"
	}
	if c.warm && c.seeded != nil {
		eval := c.seeded.GSeeded
		if isH {
			eval = c.seeded.HSeeded
		}
		v, b, err := eval(i, seed)
		if err != nil {
			return 0, nil, fmt.Errorf("mechanism: %s_%d: %w", name, i, err)
		}
		return v, b, nil
	}
	var v float64
	var err error
	if isH {
		v, err = c.seq.H(i)
	} else {
		v, err = c.seq.G(i)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("mechanism: %s_%d: %w", name, i, err)
	}
	return v, nil, nil
}

// waveProbes fills buf with up to ladderWave strictly increasing interior
// points of (lo, hi), splitting the bracket into ladderWave+1 near-equal
// segments, and returns the filled prefix.
func waveProbes(lo, hi int, buf []int) []int {
	d := hi - lo
	probes := buf[:0]
	for k := 1; k <= ladderWave; k++ {
		p := lo + k*d/(ladderWave+1)
		if p <= lo || p >= hi {
			continue
		}
		if len(probes) > 0 && probes[len(probes)-1] == p {
			continue
		}
		probes = append(probes, p)
	}
	return probes
}

// Prepare computes the deterministic Δ of Eq. 11:
//
//	Δ = min{ e^{iβ}θ : G_{|P|−i} ≤ e^{iβ}θ }.
//
// The predicate is monotone in i — G_{|P|−i} is non-increasing in i while
// e^{iβ}θ increases — so the smallest feasible i is found by a bracketing
// search (§5.3 uses a plain binary search; this one probes a wave of
// ladderWave evenly spaced points per round, each an independent G LP
// solve, so a fanout overlaps them on the compute pool). The schedule is
// the same with and without a fanout: under *exact* monotonicity any
// schedule finds the same index, but the LP solver's G values carry
// floating-point error, and a sub-tolerance inversion near the threshold
// could steer differently shaped searches to different indices — so, as
// in XGiven, one pinned schedule is what makes Δ bit-identical across
// every -compile-parallelism. i = |P| is always feasible because G_0 = 0.
func (c *Core) Prepare() error {
	if c.prepared {
		return nil
	}
	nP := c.seq.NumParticipants()
	feasible := func(i int, g float64) bool {
		return g <= math.Exp(float64(i)*c.params.Beta)*c.params.Theta
	}
	var probeBuf, gIdx [waveMax]int
	var gs [waveMax]float64
	lo, hi := 0, nP // invariant: hi is feasible, the answer is in [lo, hi]
	for lo < hi {
		var probes []int
		if hi-lo <= ladderWave {
			// Endgame: probe every remaining candidate below hi at once.
			probes = probeBuf[:0]
			for i := lo; i < hi; i++ {
				probes = append(probes, i)
			}
		} else {
			probes = waveProbes(lo, hi, probeBuf[:])
		}
		for k, p := range probes {
			gIdx[k] = nP - p
		}
		if err := c.probeWave(false, gIdx[:len(probes)], gs[:len(probes)]); err != nil {
			return err
		}
		// Monotonicity: the infeasible probes are a prefix. The first
		// feasible probe becomes the new hi; everything at or below the
		// last infeasible probe is ruled out.
		for k, p := range probes {
			if feasible(p, gs[k]) {
				hi = p
				break
			}
			lo = p + 1
		}
	}
	c.deltaIndex = hi
	c.delta = math.Exp(float64(hi)*c.params.Beta) * c.params.Theta
	c.prepared = true
	return nil
}

// Delta returns the deterministic sensitivity proxy Δ (Prepare must have
// succeeded). Δ is NOT differentially private — only its noisy version
// released through Release is.
func (c *Core) Delta() (float64, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	return c.delta, nil
}

// DeltaIndex returns the ladder index i with Δ = e^{iβ}θ.
func (c *Core) DeltaIndex() (int, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	return c.deltaIndex, nil
}

// NoisyDelta draws Δ̂ = e^{µ+Y}·Δ with Y ~ Lap(β/ε₁) (Step 2 of §4.1). Its
// release satisfies ε₁-differential privacy (Lemma 4).
func (c *Core) NoisyDelta(rng *rand.Rand) (float64, error) {
	if err := c.Prepare(); err != nil {
		return 0, err
	}
	y := noise.Laplace(rng, c.params.Beta/c.params.Epsilon1)
	return math.Exp(c.params.Mu+y) * c.delta, nil
}

// XGiven computes X = min_i { H_i + (|P|−i)·Δ̂ } (Eq. 12) for a fixed Δ̂.
// H is convex in i (Lemma 10) and the linear term preserves convexity, so
// the integer minimum is bracketed by multisection: each round evaluates a
// wave of ladderWave evenly spaced interior points — independent H LP
// solves, overlapped on the compute pool when a fanout is set — and narrows
// to the segment pair flanking the smallest probe, which convexity
// guarantees still contains a global minimizer. The final bracket is
// scanned exhaustively, so the returned value is the exact discrete
// minimum, identical for any wave execution order.
func (c *Core) XGiven(deltaHat float64) (float64, error) {
	nP := c.seq.NumParticipants()
	val := func(i int, h float64) float64 {
		return h + float64(nP-i)*deltaHat
	}
	var probeBuf [waveMax]int
	var hs [waveMax]float64
	lo, hi := 0, nP
	// Narrow to a bracket of ≤ 3 candidates. Brackets of width ≥ 3 always
	// get at least two interior probes, so the flank rule below strictly
	// shrinks them; width 2 would stall on its single probe, which is why
	// the loop stops there and hands over to the exhaustive scan.
	for hi-lo > 2 {
		probes := waveProbes(lo, hi, probeBuf[:])
		if err := c.probeWave(true, probes, hs[:len(probes)]); err != nil {
			return 0, err
		}
		best := 0
		for k := 1; k < len(probes); k++ {
			if val(probes[k], hs[k]) < val(probes[best], hs[best]) {
				best = k
			}
		}
		// A minimizer lies between the probes flanking the smallest one
		// (endpoints lo/hi serve as the outer flanks).
		if best > 0 {
			lo = probes[best-1]
		}
		if best < len(probes)-1 {
			hi = probes[best+1]
		}
	}
	// Endgame: evaluate the remaining ≤ 3 candidates (mostly memoized
	// flanks) as one wave and take the minimum.
	idxs := probeBuf[:0]
	for i := lo; i <= hi; i++ {
		idxs = append(idxs, i)
	}
	if err := c.probeWave(true, idxs, hs[:len(idxs)]); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for k, i := range idxs {
		if v := val(i, hs[k]); v < best {
			best = v
		}
	}
	return best, nil
}

// Release produces one ε₁+ε₂ differentially private answer:
// X̂ = X + Lap(Δ̂/ε₂) with X per Eq. 12 and Δ̂ per Step 2.
func (c *Core) Release(rng *rand.Rand) (float64, error) {
	deltaHat, err := c.NoisyDelta(rng)
	if err != nil {
		return 0, err
	}
	x, err := c.XGiven(deltaHat)
	if err != nil {
		return 0, err
	}
	return x + noise.Laplace(rng, deltaHat/c.params.Epsilon2), nil
}

// TrueAnswer returns H_{|P|}, the exact query answer (not private).
func (c *Core) TrueAnswer() (float64, error) {
	return c.h(c.seq.NumParticipants())
}

// Params returns the configured parameters.
func (c *Core) Params() Params { return c.params }

// NumParticipants returns |P|.
func (c *Core) NumParticipants() int { return c.seq.NumParticipants() }
