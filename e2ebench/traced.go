package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"recmech/internal/boolexpr"
	"recmech/internal/graph"
	"recmech/internal/plan"
	"recmech/internal/pool"
	"recmech/internal/query"
	"recmech/internal/service"
	"recmech/internal/store"
	"recmech/internal/subgraph"
)

// The traced run replays the workload's op stream in-process and records
// its own spans around calls into each layer's public functions; the
// program itself is not instrumented. Every op gets a root span ("op") and
// one child span per public call made for it:
//
//   - http or service.*: the op itself, served by service.NewHandler (span
//     "http") or by the Service method directly ("service.query",
//     "service.append"). Hits and replays, which repeat the same cheap
//     request, alternate between the two paths per shape, and http self
//     time is the difference of the two medians. Fresh queries, appends and
//     after-append queries, whose cost varies from op to op far more than
//     an HTTP round trip costs, all go to the Service method; uploads,
//     prepares and deletes all go through the handler.
//   - plan.*, subgraph.*, query.eval, store.commit: the same op's work
//     repeated directly against the lower layers, on plans the benchmark
//     compiles and advances itself alongside the service's.

type span struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Class string  `json:"class,omitempty"`
	Group string  `json:"group,omitempty"`
	Timed bool    `json:"timed"`
	Start float64 `json:"startUs"` // since the traced run began
	End   float64 `json:"endUs"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

type shadowPlan struct {
	pl  *plan.Plan
	occ *subgraph.Occurrences
}

// shadowData is the benchmark's own copy of one dataset's current
// generation, and the plans it compiled against it.
type shadowData struct {
	src   plan.Source
	table string                 // relational: the e table's text
	plans map[string]*shadowPlan // by spec key
	old   map[string]*shadowPlan // the previous generation's, after a graph append
	added []graph.Edge
}

type tracedExec struct {
	svc   *service.Service
	h     http.Handler
	st    *store.Store // the service's store (durable workloads)
	side  *store.Store // the benchmark's own store, for store.commit spans
	pool  *pool.Pool
	rng   *rand.Rand
	data  map[string]*shadowData
	turn  map[string]int // hits and replays per shape so far: even ones go through HTTP
	r     *runner
	t0    time.Time
	op    int
	spans []span
	// advances counts the benchmark's own Plan.Advance calls, which bump
	// the same process-wide counters the service's re-warms do.
	advances  float64
	hitAllocs []float64
}

func newTracedExec(c config) (*tracedExec, error) {
	cfg := service.Config{DatasetBudget: 1e9, Seed: c.seed}
	tx := &tracedExec{rng: rand.New(rand.NewSource(c.seed)), data: map[string]*shadowData{},
		turn: map[string]int{}, t0: time.Now()}
	if c.durable {
		var err error
		if tx.st, err = store.Open(store.Config{Dir: filepath.Join(c.work, "traced-data")}); err != nil {
			return nil, err
		}
		var warns []error
		if tx.svc, warns = service.NewWithStore(cfg, tx.st); len(warns) > 0 {
			tx.close()
			return nil, errors.Join(warns...)
		}
		if tx.side, err = store.Open(store.Config{Dir: filepath.Join(c.work, "traced-commit")}); err != nil {
			tx.close()
			return nil, err
		}
		if err := tx.side.Grant("bench", 1e18); err != nil {
			tx.close()
			return nil, err
		}
	} else {
		tx.svc = service.New(cfg)
	}
	logger, err := service.NewAccessLogger(io.Discard, "text")
	if err != nil {
		tx.close()
		return nil, err
	}
	tx.h = service.WithAccessLog(service.NewHandler(tx.svc), logger)
	if n := runtime.GOMAXPROCS(0); n > 1 {
		tx.pool = pool.New(n)
	}
	return tx, nil
}

func (tx *tracedExec) close() {
	for _, s := range []*store.Store{tx.st, tx.side} {
		if s != nil {
			s.Close()
		}
	}
}

// call runs f inside a span named name under the current op.
func (tx *tracedExec) call(o *op, name string, f func()) {
	start := time.Since(tx.t0)
	f()
	end := time.Since(tx.t0)
	tx.spans = append(tx.spans, span{Op: tx.op, Name: name, Class: o.class, Group: o.group,
		Start: float64(start) / 1e3, End: float64(end) / 1e3})
}

func (tx *tracedExec) send(o *op, body []byte) (status int, out []byte, err error) {
	tx.op++
	timed := tx.r.timed && o.class != "" && !o.scaffold
	first := len(tx.spans)
	start := time.Since(tx.t0)
	status, out, err = tx.serve(o, body)
	if err == nil && status/100 == 2 {
		err = tx.shadow(o)
	}
	tx.spans = append(tx.spans, span{Op: tx.op, Name: "op", Class: o.class, Group: o.group,
		Start: float64(start) / 1e3, End: float64(time.Since(tx.t0)) / 1e3})
	for i := first; i < len(tx.spans); i++ {
		tx.spans[i].Timed = timed
	}
	return status, out, err
}

// serve executes the op against the service, through the HTTP handler or
// the Service method.
func (tx *tracedExec) serve(o *op, body []byte) (int, []byte, error) {
	var direct bool
	switch o.class {
	case classHit, classReplay:
		turn := o.class + "|" + o.group
		direct = tx.turn[turn]%2 == 1
		tx.turn[turn]++
	case classFresh, classAppend, classAfterAppend:
		direct = true
	}
	if !direct {
		method, path := http.MethodPost, "/v2/query"
		switch o.kind {
		case opUpload:
			method, path = http.MethodPut, "/v1/datasets/"+o.dataset
		case opPrepare:
			path = "/v2/prepare"
		case opAppend:
			method, path = http.MethodPatch, "/v1/datasets/"+o.dataset
		case opDelete:
			method, path = http.MethodDelete, "/v1/datasets/"+o.dataset
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		tx.call(o, "http", func() { tx.h.ServeHTTP(rec, req) })
		return rec.Code, rec.Body.Bytes(), nil
	}
	var (
		v   any
		err error
	)
	if o.kind == opAppend {
		var ap service.AppendRequest
		if err := json.Unmarshal(body, &ap); err != nil {
			return 0, nil, err
		}
		tx.call(o, "service.append", func() { v, err = tx.svc.AppendDataset(o.dataset, ap) })
	} else {
		var req service.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, nil, err
		}
		var before, after runtime.MemStats
		if o.class == classHit {
			runtime.ReadMemStats(&before)
		}
		tx.call(o, "service.query", func() { v, err = tx.svc.Query(context.Background(), req) })
		if o.class == classHit {
			runtime.ReadMemStats(&after)
			tx.hitAllocs = append(tx.hitAllocs, float64(after.Mallocs-before.Mallocs))
		}
	}
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error()), nil
	}
	out, err := json.Marshal(v)
	return http.StatusOK, out, err
}

func specFor(q queryBody) *plan.Spec {
	return &plan.Spec{Kind: q.Kind, Query: q.Query, K: q.K, EdgePrivacy: q.Privacy == "edge", Mode: plan.ModeExact}
}

func buildGraph(g *graphData) *graph.Graph {
	out := graph.New(g.n)
	for _, e := range g.edges {
		out.AddEdge(e[0], e[1])
	}
	return out
}

func relationalSource(table string) (plan.Source, error) {
	u := boolexpr.NewUniverse()
	rel, err := query.LoadTable(strings.NewReader(table), u)
	if err != nil {
		return plan.Source{}, err
	}
	db := query.NewDatabase()
	db.Register("e", rel)
	return plan.Source{DB: db, Universe: u}, nil
}

// shadow repeats the op's work against the lower layers.
func (tx *tracedExec) shadow(o *op) error {
	ctx := context.Background()
	sd := tx.data[o.dataset]
	switch o.kind {
	case opDelete:
		delete(tx.data, o.dataset)
		return nil
	case opUpload:
		sd = &shadowData{plans: map[string]*shadowPlan{}}
		tx.data[o.dataset] = sd
		if o.graph != nil {
			sd.src = plan.Source{Graph: buildGraph(o.graph)}
			return nil
		}
		sd.table = o.up.Tables["e"]
		var err error
		sd.src, err = relationalSource(sd.table)
		return err
	case opAppend:
		if o.graph != nil {
			sd.src = plan.Source{Graph: buildGraph(o.graph)}
			sd.old, sd.plans = sd.plans, map[string]*shadowPlan{}
			sd.added = sd.added[:0]
			for _, e := range o.added {
				sd.added = append(sd.added, graph.Edge{U: e[0], V: e[1]})
			}
			return nil
		}
		sd.table += o.ap.Rows["e"]
		sd.plans, sd.old = map[string]*shadowPlan{}, nil
		var err error
		sd.src, err = relationalSource(sd.table)
		return err
	}
	spec := specFor(o.q)
	var (
		key string
		err error
	)
	tx.call(o, "plan.spec", func() {
		if err = spec.Validate(); err == nil {
			key, err = spec.Key()
		}
	})
	if err != nil || o.class == classReplay {
		return err
	}
	if tx.side != nil && o.kind == opQuery {
		tx.call(o, "store.commit", func() {
			var id uint64
			if id, err = tx.side.Reserve("bench", o.q.Epsilon); err == nil {
				err = tx.side.Commit(id)
			}
		})
		if err != nil {
			return err
		}
	}
	var fan subgraph.Fanout
	if tx.pool != nil {
		fan = tx.pool.Fanout(ctx)
	}
	p := sd.plans[key]
	if old := sd.old[key]; o.class == classAfterAppend && old != nil {
		np := &shadowPlan{}
		g2 := sd.src.Graph
		tx.call(o, "subgraph.advance", func() { np.occ, _, err = old.occ.Advance(g2, sd.added, fan) })
		if err != nil {
			return err
		}
		tx.call(o, "plan.advance", func() { np.pl, _, err = old.pl.Advance(ctx, sd.src, plan.Delta{Added: sd.added}, tx.pool) })
		tx.advances++
		if err != nil {
			return err
		}
		sd.plans[key] = np
		tx.call(o, "plan.advanced_release", func() { _, err = np.pl.Release(ctx, o.q.Epsilon, tx.rng) })
		return err
	}
	if p == nil {
		p = &shadowPlan{}
		if g := sd.src.Graph; g != nil {
			tx.call(o, "subgraph.enumerate", func() { p.occ, err = enumerate(g, spec, fan) })
		} else {
			q, perr := query.Parse(spec.Query)
			if perr != nil {
				return perr
			}
			tx.call(o, "query.eval", func() { _, err = q.Eval(sd.src.DB) })
		}
		if err != nil {
			return err
		}
		tx.call(o, "plan.compile", func() { p.pl, err = plan.CompileContext(ctx, sd.src, spec, tx.pool) })
		if err != nil {
			return err
		}
		sd.plans[key] = p
		if o.kind == opPrepare {
			return p.pl.Warm(ctx, o.q.Epsilon)
		}
		tx.call(o, "plan.first_release", func() { _, err = p.pl.Release(ctx, o.q.Epsilon, tx.rng) })
		return err
	}
	if o.kind == opQuery {
		tx.call(o, "plan.release", func() { _, err = p.pl.Release(ctx, o.q.Epsilon, tx.rng) })
	}
	return err
}

// enumerate runs the retained enumeration a compile of spec performs.
func enumerate(g *graph.Graph, spec *plan.Spec, fan subgraph.Fanout) (*subgraph.Occurrences, error) {
	switch spec.Kind {
	case "triangles":
		return subgraph.TrianglesRetained(g, fan)
	case "ktriangles":
		return subgraph.KTrianglesRetained(g, spec.K, fan)
	}
	return nil, fmt.Errorf("no enumeration for kind %q", spec.Kind)
}

func (tx *tracedExec) counters() (map[string]float64, error) { return nil, nil }

func (tx *tracedExec) deltaDone() (float64, error) {
	dc := tx.svc.Stats().DeltaCompiles
	if dc == nil {
		return 0, nil
	}
	return float64(dc.Advances+dc.Fallbacks) - tx.advances, nil
}

func (tx *tracedExec) spent(ds string) (float64, error) {
	b, err := tx.svc.Budget(ds)
	return b.Spent, err
}

// layerMs is the typical duration of the named spans over timed ops of
// class (every class when class is ""). Shapes differ in cost by an order of
// magnitude, so it is a mixture of per-shape medians, weighted by the
// class's ops per shape (or by the spans per shape when class is ""): paths
// that saw different shape mixes stay comparable. 0 when there are none.
func (tx *tracedExec) layerMs(name, class string) float64 {
	durs := map[string][]float64{}
	weight := map[string]float64{}
	for _, s := range tx.spans {
		if !s.Timed || (class != "" && s.Class != class) {
			continue
		}
		if s.Name == name {
			durs[s.Group] = append(durs[s.Group], s.ms())
			if class == "" {
				weight[s.Group]++
			}
		} else if s.Name == "op" && class != "" {
			weight[s.Group]++
		}
	}
	var sum, wsum float64
	for g, xs := range durs {
		sum += weight[g] * median(xs)
		wsum += weight[g]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

func (tx *tracedExec) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tx.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayer(c config) (*result, error) {
	half := c.seconds / 2
	run, err := runHTTP(c, c.seed, half, 1)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: run.r.ops, Failed: run.r.failed, Metrics: map[string]metric{}}
	if run.r.checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", run.r.checkErr)
		res.Attempted = max(res.Attempted, 1)
		return res, nil
	}
	fmt.Printf("# server gomaxprocs=%d\n", run.srvProcs)
	printClasses(run.r)

	runtime.GOMAXPROCS(runtime.NumCPU())
	tx, err := newTracedExec(c)
	if err != nil {
		return nil, err
	}
	defer tx.close()
	g, _ := newGen(c.workload, c.seed)
	r := newRunner(tx, g)
	tx.r = r
	r.setup()
	elapsed := time.Duration(0)
	if r.checkErr == nil {
		elapsed = r.runFor(half, 1)
		r.checkBudgets()
	}
	printClasses(r)
	res.Attempted += r.ops
	res.Failed += r.failed
	if r.checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", r.checkErr)
		return res, nil
	}
	spansPath := filepath.Join(filepath.Dir(c.work), fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	if err := tx.writeSpans(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("# spans %d written to %s\n", len(tx.spans), spansPath)
	res.Correct = true

	m := res.Metrics
	d := run.counters
	ops := float64(run.r.ops)
	count := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	count("service.plan_hit_ratio", ratio(d["queries.plan_hit"], d["queries.fresh"]+d["queries.plan_hit"]), "ratio")
	count("cache.release.hit_ratio", ratio(d["cache.release.hits"], d["cache.release.hits"]+d["cache.release.misses"]+d["cache.release.coalesced"]), "ratio")
	count("cache.plan.coalesced_per_op", d["cache.plan.coalesced"]/ops, "count")
	count("lp.solves_per_op", d["lp.solves"]/ops, "count")
	count("lp.pivots_per_solve", ratio(d["lp.pivots"], d["lp.solves"]), "count")
	count("lp.warm_applied_ratio", ratio(d["lp.warm_applied"], d["lp.warm_attempts"]), "ratio")
	count("pool.inline_ratio", ratio(d["pool.inline"], d["pool.fanouts"]), "ratio")
	count("delta.units_dirty_ratio", ratio(d["delta.units_dirty"], d["delta.units_total"]), "ratio")
	count("delta.values_carried_per_advance", ratio(d["delta.values_carried"], d["delta.advances"]), "count")
	count("delta.fallbacks_per_append", ratio(d["delta.fallbacks"], d["delta.appends"]), "count")
	count("store.fsyncs_per_op", d["store.fsyncs"]/ops, "count")
	count("store.wal_bytes_per_op", d["store.wal_bytes"]/ops, "bytes")
	count("store.fsync_ms_per_op", d["store.fsync_ms"]/ops, "ms")
	count("runtime.gc_cycles_per_op", d["runtime.gc_cycles"]/ops, "count")

	med := tx.layerMs
	for _, cl := range []string{classFresh, classAfterAppend} {
		m["service.query_ms."+cl] = metric{med("service.query", cl), "ms"}
	}
	// Hits and replays repeat one cheap request, so the differences of
	// medians below compare like with like; for a hit, the plan-layer calls
	// the service makes inside Query are Spec.Validate, Spec.Key and one
	// warm Plan.Release, for a replay only the first two.
	for _, cl := range []string{classHit, classReplay} {
		sq := med("service.query", cl)
		m["service.query_ms."+cl] = metric{sq, "ms"}
		m["http.self_ms."+cl] = metric{med("http", cl) - sq, "ms"}
		m["service.self_ms."+cl] = metric{sq - med("plan.spec", cl) - med("plan.release", cl), "ms"}
	}
	m["service.append_ms"] = metric{med("service.append", classAppend), "ms"}
	hitAllocs := 0.0
	if len(tx.hitAllocs) > 0 {
		hitAllocs = median(tx.hitAllocs)
	}
	m["service.hit_allocs_per_op"] = metric{hitAllocs, "count"}
	for _, name := range []string{"plan.spec", "query.eval", "plan.compile", "subgraph.enumerate", "plan.first_release",
		"plan.release", "plan.advance", "subgraph.advance", "plan.advanced_release", "store.commit"} {
		m[name+"_ms"] = metric{med(name, ""), "ms"}
	}
	untraced := ops / run.elapsed.Seconds()
	traced := float64(r.ops) / elapsed.Seconds()
	m["trace.overhead_pct"] = metric{100 * (untraced - traced) / untraced, "%"}
	fmt.Printf("# ops_per_s untraced=%.2f traced=%.2f\n", untraced, traced)
	return res, nil
}
