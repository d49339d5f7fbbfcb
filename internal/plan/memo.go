package plan

import (
	"sync"
	"sync/atomic"

	"recmech/internal/lp"
	"recmech/internal/mechanism"
	"recmech/internal/trace"
)

// memoSeq memoizes a Sequences implementation behind a read-write lock so
// every Core built over one plan — one per release — shares the same H/G
// values instead of re-solving LPs. mechanism.Core has its own per-instance
// memo, but a Core lives for exactly one release; this is the cross-release,
// cross-goroutine layer.
//
// A miss computes outside the lock: two goroutines racing on the same index
// may both solve the LP, but the solver is deterministic so either result
// is the same value, and not holding the lock across a solve keeps readers
// of already-memoized entries from stalling behind a miss.
type memoSeq struct {
	inner  mechanism.Sequences
	info   solveInfoSeq  // inner's per-solve variant, when it offers one
	seeded seededInfoSeq // inner's warm-start variant, when it offers one

	mu   sync.RWMutex
	h, g family

	// warmOff kills seeding (and basis retention) when the plan's
	// -lp-warm-start gate is off, so the A/B baseline is honestly cold.
	warmOff atomic.Bool
}

// family is one sequence's cross-release state. bases holds the terminal
// basis of every solve on this plan, keyed by rung, from any release: a
// fresh Core starts with empty family bases, so without this layer every
// release's first H and first G solve would run cold; the memo remembers
// across releases — and across the Warm/Release split, where Warm does the
// Δ search and a later Release picks up the X search. A miss seeds from the
// nearest solved rung (dual-simplex distance tracks the right-hand-side
// gap, so nearest beats most-recent). Bases never cross generations: an
// append that adds a match changes the LP's shape, and the solver would
// reject every inherited basis. Bases are a pure performance
// channel (solver exactness is unconditional), so sharing them across
// racing releases needs no more care than the mutex.
type family struct {
	vals   map[int]float64
	bases  map[int]*lp.Basis
	solves atomic.Uint64 // LP solves performed (misses), for Plan.Solves
}

func (m *memoSeq) fam(isH bool) *family {
	if isH {
		return &m.h
	}
	return &m.g
}

func (m *memoSeq) setWarm(on bool) { m.warmOff.Store(!on) }

// nearestLocked returns the retained basis of the solved rung nearest to i
// (ties to the lower rung) from bases, or nil when it is empty. Callers
// hold m.mu (read or write). The (distance, rung) comparison totally
// orders candidates, so Go's randomized map iteration cannot change the
// answer.
func nearestLocked(bases map[int]*lp.Basis, i int) *lp.Basis {
	var best *lp.Basis
	bestDist, bestRung := 0, 0
	for k, b := range bases {
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

// solveInfoSeq is the optional Sequences extension the traced path prefers:
// the same values as H/G plus per-solve cost (mechanism.Efficient provides
// it). Memo hits never reach it, so the info is recorded exactly by the
// access that paid for the solve.
type solveInfoSeq interface {
	HInfo(i int) (float64, mechanism.SolveInfo, error)
	GInfo(i int) (float64, mechanism.SolveInfo, error)
}

// seededInfoSeq is the optional extension combining per-solve info with
// warm-start basis handoff (mechanism.Efficient provides it). When inner
// offers it, memo misses seed their LP from the plan's retained basis and
// hand their own terminal basis back for retention.
type seededInfoSeq interface {
	HInfoSeeded(i int, seed *lp.Basis) (float64, mechanism.SolveInfo, *lp.Basis, error)
	GInfoSeeded(i int, seed *lp.Basis) (float64, mechanism.SolveInfo, *lp.Basis, error)
}

func newMemoSeq(inner mechanism.Sequences) *memoSeq {
	m := &memoSeq{inner: inner}
	for _, f := range []*family{&m.h, &m.g} {
		f.vals = make(map[int]float64)
		f.bases = make(map[int]*lp.Basis)
	}
	m.info, _ = inner.(solveInfoSeq)
	m.seeded, _ = inner.(seededInfoSeq)
	return m
}

func (m *memoSeq) NumParticipants() int { return m.inner.NumParticipants() }

func (m *memoSeq) H(i int) (float64, error) {
	v, _, err := m.get(true, i, nil, nil)
	return v, err
}

func (m *memoSeq) G(i int) (float64, error) {
	v, _, err := m.get(false, i, nil, nil)
	return v, err
}

// lookup returns H_i (isH) or G_i when it is memoized, without solving.
func (m *memoSeq) lookup(isH bool, i int) (float64, bool) {
	f := m.fam(isH)
	m.mu.RLock()
	v, ok := f.vals[i]
	m.mu.RUnlock()
	return v, ok
}

// get returns H_i (isH) or G_i with span attribution and warm-start basis
// handoff. A memo hit returns a nil basis — there was no solve, so the
// caller's family basis stands — and touches neither the clock nor the
// cursor. A miss records an lp.solve span (rung index, pivots, LP size,
// seed disposition) under the phase span cur points at; its LP is seeded
// with the plan's retained basis of the nearest solved rung (falling back
// to the caller's seed when the plan has none yet), and its terminal basis
// is both retained under its rung and returned.
func (m *memoSeq) get(isH bool, i int, cur *spanCursor, seed *lp.Basis) (float64, *lp.Basis, error) {
	if v, ok := m.lookup(isH, i); ok {
		return v, nil, nil
	}
	f := m.fam(isH)
	warmOff := m.warmOff.Load()
	if warmOff {
		seed = nil
	} else {
		m.mu.RLock()
		if b := nearestLocked(f.bases, i); b != nil {
			seed = b
		}
		m.mu.RUnlock()
	}
	v, b, err := m.solveSeeded(isH, i, cur, seed)
	if err != nil {
		return 0, nil, err
	}
	f.solves.Add(1)
	m.mu.Lock()
	f.vals[i] = v
	if b != nil && !warmOff {
		f.bases[i] = b
	}
	m.mu.Unlock()
	return v, b, nil
}

// solveSeeded runs one H or G evaluation, threading the warm-start seed
// when inner offers the seeded variant and recording an lp.solve span (now
// including the seed's disposition) when the release is traced. A nil seed
// with a seeded inner still uses the seeded call — the solver treats it as
// a cold solve and hands back a basis worth retaining.
func (m *memoSeq) solveSeeded(isH bool, i int, cur *spanCursor, seed *lp.Basis) (float64, *lp.Basis, error) {
	sp := trace.StartChild(cur.get(), "lp.solve")
	var (
		v    float64
		info mechanism.SolveInfo
		b    *lp.Basis
		err  error
	)
	switch {
	case m.seeded != nil && isH:
		v, info, b, err = m.seeded.HInfoSeeded(i, seed)
	case m.seeded != nil:
		v, info, b, err = m.seeded.GInfoSeeded(i, seed)
	case sp != nil && m.info != nil && isH:
		v, info, err = m.info.HInfo(i)
	case sp != nil && m.info != nil:
		v, info, err = m.info.GInfo(i)
	default:
		if isH {
			v, err = m.inner.H(i)
		} else {
			v, err = m.inner.G(i)
		}
		sp.End() // sp can be non-nil here (info-less inner); still close it
		return v, nil, err
	}
	if sp != nil {
		seq := "g"
		if isH {
			seq = "h"
		}
		sp.Str("seq", seq).Int("i", int64(i)).
			Int("pivots", int64(info.Pivots)).Int("rows", int64(info.Rows)).Int("cols", int64(info.Cols)).
			Str("warm", info.Warm.String())
		if err != nil {
			sp.Str("error", err.Error())
		}
		sp.End()
	}
	return v, b, err
}

func (m *memoSeq) solves() (h, g uint64) {
	return m.h.solves.Load(), m.g.solves.Load()
}

// carryValues copies the predecessor generation's solved H/G values into
// this memo, for a delta that left the LP encoding semantically identical
// (same tuples, same participant count): the new generation's first release
// then skips those solves entirely. Bases stay behind, like every basis of
// another generation (see family).
func (m *memoSeq) carryValues(from *memoSeq) int {
	from.mu.RLock()
	defer from.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range from.h.vals {
		m.h.vals[i] = v
	}
	for i, v := range from.g.vals {
		m.g.vals[i] = v
	}
	return len(from.h.vals) + len(from.g.vals)
}
