package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// executor carries ops to the program: over HTTP to a recmechd process, or
// in-process through the layers' public functions (the traced run).
type executor interface {
	// send executes one op and returns the HTTP status and body the
	// program answered with.
	send(o *op, body []byte) (int, []byte, error)
	// counters snapshots the program's monotone counters (GET /v1/stats,
	// plus server CPU for a process).
	counters() (map[string]float64, error)
	// deltaDone counts the background plan advances (including fallback
	// recompiles) that appends have finished so far.
	deltaDone() (float64, error)
	// spent is the ε the program's ledger has charged to a dataset.
	spent(dataset string) (float64, error)
}

// runner drives an op stream through an executor, times the timed ops by
// class, and checks every answer.
type runner struct {
	ex     executor
	g      *gen
	timed  bool
	lat    map[string][]float64 // timed op latencies in ms, by class
	ops    int                  // timed ops attempted
	failed int                  // timed ops that failed
	eps    float64              // ε charged by timed ops
	slices []*slice             // the timed phase's consecutive parts
	cur    *slice               // the part running now

	spentBy  map[string]float64 // ε charged per dataset by uncached answers, every phase
	datasets map[string]bool    // datasets uploaded
	hitValue json.RawMessage    // the last hit's released value, for its replay
	hitEps   float64
	wantDone float64 // background advances the appends so far must finish

	paused   time.Duration      // untimed waits inside the timed phase
	excluded map[string]float64 // counters consumed by scaffold ops
	checkErr error              // the first failed output check
}

// slice is one of the timed phase's consecutive parts, each ending on a
// cycle boundary. The end-to-end metrics are taken over the slices in which
// the hypervisor took little CPU time from the machine (see quietSlices).
type slice struct {
	elapsed time.Duration        // timed-phase time, untimed waits excluded
	ops     int                  // timed ops attempted
	lat     map[string][]float64 // latencies in ms, by class
	cpuMs   float64              // server CPU, scaffold ops excluded
	steal   float64              // share of the machine's CPU time the hypervisor took
}

func newRunner(ex executor, g *gen) *runner {
	return &runner{ex: ex, g: g, lat: map[string][]float64{}, spentBy: map[string]float64{},
		datasets: map[string]bool{}, excluded: map[string]float64{}}
}

func (r *runner) fail(check, format string, args ...any) {
	if r.checkErr == nil {
		r.checkErr = fmt.Errorf("check %s failed: %s", check, fmt.Sprintf(format, args...))
	}
}

func encode(o *op) []byte {
	var v any
	switch o.kind {
	case opUpload:
		v = o.up
	case opAppend:
		v = o.ap
	default:
		v = o.q
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return b
}

// setup runs the workload's uploads and prepares, then the first cycle of
// its own stream as a warm-up, all untimed.
func (r *runner) setup() {
	r.timed = false
	for _, o := range r.g.w.setup() {
		r.step(o)
	}
	r.step(r.g.next())
	for len(r.g.queue) > 0 && r.checkErr == nil {
		r.step(r.g.next())
	}
}

// runFor runs the stream for at least d of timed-phase time in n slices of
// at least d/n each, every slice running on to the end of the workload's
// current cycle so that it covers whole cycles, and returns the timed
// phase's length (wall time minus untimed waits).
func (r *runner) runFor(d time.Duration, n int) time.Duration {
	r.timed = true
	r.paused = 0
	start := time.Now()
	timedSince := func() time.Duration { return time.Since(start) - r.paused }
	for range n {
		if r.checkErr != nil {
			break
		}
		s := &slice{lat: map[string][]float64{}}
		r.cur = s
		cpu0 := r.serverCPU()
		total0, steal0 := hostCPU()
		t0 := timedSince()
		end := t0 + d/time.Duration(n)
		for (timedSince() < end || len(r.g.queue) > 0) && r.checkErr == nil {
			r.step(r.g.next())
		}
		s.elapsed = timedSince() - t0
		total1, steal1 := hostCPU()
		s.cpuMs = r.serverCPU() - cpu0
		if total1 > total0 {
			s.steal = (steal1 - steal0) / (total1 - total0)
		}
		r.slices = append(r.slices, s)
	}
	r.cur = nil
	return timedSince()
}

// serverCPU is the server's CPU time so far minus what scaffold ops used;
// reading it is an untimed wait.
func (r *runner) serverCPU() float64 {
	t := time.Now()
	defer func() { r.paused += time.Since(t) }()
	c, err := r.ex.counters()
	if err != nil {
		r.fail("counters", "%v", err)
		return 0
	}
	return c["cpu_ms"] - r.excluded["cpu_ms"]
}

// hostCPU returns the CPU time all of the machine's CPUs have accounted so
// far and the part of it the hypervisor gave to other machines while this
// one had work to run (steal), in ticks, from the first line of /proc/stat;
// zeros where there is no such line.
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func (r *runner) step(o op) {
	if o.settle {
		t := time.Now()
		r.settle()
		r.paused += time.Since(t)
	}
	if o.scaffold && r.timed {
		t := time.Now()
		before, err := r.ex.counters()
		if err != nil {
			r.fail("counters", "%v", err)
			return
		}
		r.exec(&o)
		after, err := r.ex.counters()
		if err != nil {
			r.fail("counters", "%v", err)
			return
		}
		for k, v := range after {
			r.excluded[k] += v - before[k]
		}
		r.paused += time.Since(t)
		return
	}
	r.exec(&o)
}

// settleEvery is how often settle polls /v1/stats. The wait is untimed, but
// the server CPU that answering a poll costs lands in the timed phase, so
// polls are spaced well apart.
const settleEvery = 15 * time.Millisecond

// settle waits until every background advance the appends so far started
// has finished.
func (r *runner) settle() {
	deadline := time.Now().Add(60 * time.Second)
	for {
		done, err := r.ex.deltaDone()
		if err != nil {
			r.fail("settle", "%v", err)
			return
		}
		if done >= r.wantDone {
			return
		}
		if time.Now().After(deadline) {
			r.fail("settle", "re-warm did not settle: %g of %g advances after 60s", done, r.wantDone)
			return
		}
		time.Sleep(settleEvery)
	}
}

type queryAnswer struct {
	Value   json.RawMessage `json:"value"`
	Epsilon float64         `json:"epsilon"`
	Cached  bool            `json:"cached"`
}

func (r *runner) exec(o *op) {
	body := encode(o)
	if o.kind == opAppend {
		r.wantDone += float64(o.rewarm)
	}
	timed := r.timed && o.class != "" && !o.scaffold
	t0 := time.Now()
	status, resp, err := r.ex.send(o, body)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if timed {
		r.ops++
		if r.cur != nil {
			r.cur.ops++
		}
	}
	if err != nil || status/100 != 2 {
		if timed {
			r.failed++
		}
		r.fail("status", "%s on %s: status %d, error %v: %.300s", o.class, o.dataset, status, err, resp)
		return
	}
	if timed {
		r.lat[o.class] = append(r.lat[o.class], ms)
		if r.cur != nil {
			r.cur.lat[o.class] = append(r.cur.lat[o.class], ms)
		}
	}
	switch o.kind {
	case opUpload, opAppend:
		r.datasets[o.dataset] = true
		if o.graph == nil {
			return
		}
		var info struct{ Edges int }
		if err := json.Unmarshal(resp, &info); err != nil {
			r.fail("dataset_info", "%v", err)
		} else if info.Edges != len(o.graph.edges) {
			r.fail("edge_count", "%s has %d edges, generator expects %d", o.dataset, info.Edges, len(o.graph.edges))
		}
	case opQuery:
		var a queryAnswer
		if err := json.Unmarshal(resp, &a); err != nil {
			r.fail("answer", "%v: %.300s", err, resp)
			return
		}
		switch o.class {
		case classReplay:
			if !a.Cached || a.Epsilon != r.hitEps || !bytes.Equal(a.Value, r.hitValue) {
				r.fail("replay", "replay on %s answered cached=%v ε=%g value=%s, want cached=true ε=%g value=%s",
					o.dataset, a.Cached, a.Epsilon, a.Value, r.hitEps, r.hitValue)
			}
		default:
			if a.Cached || a.Epsilon != o.q.Epsilon {
				r.fail("uncached", "%s on %s answered cached=%v ε=%g, want a fresh release at ε=%g",
					o.class, o.dataset, a.Cached, a.Epsilon, o.q.Epsilon)
			}
		}
		if o.class == classHit {
			r.hitValue, r.hitEps = a.Value, a.Epsilon
		}
		if !a.Cached {
			r.spentBy[o.dataset] += a.Epsilon
			if timed {
				r.eps += a.Epsilon
			}
		}
	}
}

// checkBudgets compares every dataset's ledger with the ε the answers
// reported as charged.
func (r *runner) checkBudgets() {
	for _, ds := range sortedNames(r.datasets) {
		got, err := r.ex.spent(ds)
		if err != nil {
			r.fail("budget", "%s: %v", ds, err)
			return
		}
		want := r.spentBy[ds]
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			r.fail("budget", "%s ledger spent %.12g, uncached answers charged %.12g", ds, got, want)
			return
		}
	}
}

// ---- HTTP executor ----

type httpExec struct{ s *server }

func (h httpExec) send(o *op, body []byte) (int, []byte, error) {
	switch o.kind {
	case opUpload:
		return h.s.send(http.MethodPut, "/v1/datasets/"+o.dataset, body)
	case opPrepare:
		return h.s.send(http.MethodPost, "/v2/prepare", body)
	case opAppend:
		return h.s.send(http.MethodPatch, "/v1/datasets/"+o.dataset, body)
	case opDelete:
		return h.s.send(http.MethodDelete, "/v1/datasets/"+o.dataset, nil)
	default:
		return h.s.send(http.MethodPost, "/v2/query", body)
	}
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Queries struct{ Fresh, PlanHit uint64 }
	Caches  map[string]struct{ Hits, Misses, Coalesced uint64 }
	Compile struct {
		FanoutsTotal  uint64
		FanoutsInline uint64
	} `json:"compilePool"`
	LP      struct{ Solves, Pivots, WarmAttempts, WarmApplied uint64 }
	Runtime struct {
		GCCycles   uint64
		GOMAXPROCS int
	}
	Store *struct {
		WALBytes        uint64
		FsyncCount      uint64
		FsyncSecondsSum float64
	}
	DeltaCompiles *struct{ Appends, Advances, Fallbacks, ValuesCarried, UnitsTotal, UnitsDirty uint64 }
}

func (d *statsDoc) flat() map[string]float64 {
	m := map[string]float64{
		"queries.fresh":     float64(d.Queries.Fresh),
		"queries.plan_hit":  float64(d.Queries.PlanHit),
		"pool.fanouts":      float64(d.Compile.FanoutsTotal),
		"pool.inline":       float64(d.Compile.FanoutsInline),
		"lp.solves":         float64(d.LP.Solves),
		"lp.pivots":         float64(d.LP.Pivots),
		"lp.warm_attempts":  float64(d.LP.WarmAttempts),
		"lp.warm_applied":   float64(d.LP.WarmApplied),
		"runtime.gc_cycles": float64(d.Runtime.GCCycles),
	}
	for _, name := range []string{"release", "plan"} {
		c := d.Caches[name]
		m["cache."+name+".hits"] = float64(c.Hits)
		m["cache."+name+".misses"] = float64(c.Misses)
		m["cache."+name+".coalesced"] = float64(c.Coalesced)
	}
	if s := d.Store; s != nil {
		m["store.wal_bytes"] = float64(s.WALBytes)
		m["store.fsyncs"] = float64(s.FsyncCount)
		m["store.fsync_ms"] = s.FsyncSecondsSum * 1000
	}
	if dc := d.DeltaCompiles; dc != nil {
		m["delta.appends"] = float64(dc.Appends)
		m["delta.advances"] = float64(dc.Advances)
		m["delta.fallbacks"] = float64(dc.Fallbacks)
		m["delta.values_carried"] = float64(dc.ValuesCarried)
		m["delta.units_total"] = float64(dc.UnitsTotal)
		m["delta.units_dirty"] = float64(dc.UnitsDirty)
	}
	return m
}

func (h httpExec) stats() (*statsDoc, error) {
	var d statsDoc
	return &d, h.s.getJSON("/v1/stats", &d)
}

func (h httpExec) counters() (map[string]float64, error) {
	d, err := h.stats()
	if err != nil {
		return nil, err
	}
	m := d.flat()
	if h.s.gc != nil {
		// Read after the stats round trip, which let the reader of the
		// server's standard error catch up.
		m["runtime.gc_cycles"] = float64(h.s.gc.cycles.Load())
	}
	if m["cpu_ms"], err = h.s.cpuMillis(); err != nil {
		return nil, err
	}
	return m, nil
}

func (h httpExec) deltaDone() (float64, error) {
	d, err := h.stats()
	if err != nil || d.DeltaCompiles == nil {
		return 0, err
	}
	return float64(d.DeltaCompiles.Advances + d.DeltaCompiles.Fallbacks), nil
}

func (h httpExec) spent(ds string) (float64, error) {
	var b struct{ Spent float64 }
	err := h.s.getJSON("/v1/budget/"+ds, &b)
	return b.Spent, err
}
