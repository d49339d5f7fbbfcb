package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The generator turns (workload, seed) into everything the benchmark sends:
// the datasets uploaded during set-up and an endless, deterministic stream
// of operations. Nothing in it depends on the server's answers, so the
// traced in-process run replays exactly the stream the HTTP run sent, and
// one seed always yields byte-identical requests.

type opKind int

const (
	opUpload  opKind = iota // PUT /v1/datasets/{name}
	opPrepare               // POST /v2/prepare (zero ε)
	opQuery                 // POST /v2/query
	opAppend                // PATCH /v1/datasets/{name}
	opDelete                // DELETE /v1/datasets/{name}
)

// Op classes: the latency bucket a timed op is recorded in.
const (
	classFresh       = "fresh"        // misses both the plan and the release cache
	classHit         = "hit"          // cached plan, fresh ε: spends ε
	classReplay      = "replay"       // identical to the previous hit: zero ε
	classAppend      = "append"       // dataset delta
	classAfterAppend = "after_append" // first query on a prepared workload after an append
)

var classes = []string{classFresh, classHit, classReplay, classAppend, classAfterAppend}

// queryBody is the wire form of a query or prepare request.
type queryBody struct {
	Dataset string  `json:"dataset"`
	Kind    string  `json:"kind"`
	Query   string  `json:"query,omitempty"`
	K       int     `json:"k,omitempty"`
	Privacy string  `json:"privacy,omitempty"`
	Mode    string  `json:"mode,omitempty"`
	Epsilon float64 `json:"epsilon"`
}

type uploadBody struct {
	Kind   string            `json:"kind"`
	Graph  string            `json:"graph,omitempty"`
	Tables map[string]string `json:"tables,omitempty"`
}

type appendBody struct {
	Edges string            `json:"edges,omitempty"`
	Rows  map[string]string `json:"rows,omitempty"`
}

type op struct {
	kind    opKind
	class   string // timed ops; "" for set-up and scaffold ops
	group   string // queries: the workload shape, for per-shape span medians
	dataset string
	q       queryBody  // opQuery, opPrepare
	up      uploadBody // opUpload
	ap      appendBody // opAppend

	graph *graphData // opUpload, opAppend on a graph: the dataset afterwards
	added [][2]int   // opAppend on a graph: the edges added

	// rewarm is how many cached plans an append makes the server advance
	// in the background; settle asks the runner to wait, untimed, until
	// those advances have finished before it times this op.
	rewarm int
	settle bool
	// scaffold marks untimed work inside the timed phase (replacing a
	// dataset with a new one, uploading more datasets, deleting used ones):
	// its wall time, server CPU and counters are excluded from every metric.
	scaffold bool
}

// graphData is a dataset's edge set as the generator knows it.
type graphData struct {
	n     int
	edges [][2]int
	set   map[[2]int]bool
}

func newGraph(rng *rand.Rand, n, m int) *graphData {
	g := &graphData{n: n, set: make(map[[2]int]bool, m)}
	g.addRandom(rng, m)
	return g
}

// newRegular returns a random d-regular graph on n nodes (n·d even): a
// circulant graph scrambled by degree-preserving edge swaps.
func newRegular(rng *rand.Rand, n, d int) *graphData {
	g := &graphData{n: n, set: map[[2]int]bool{}}
	norm := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for u := 0; u < n; u++ {
		for k := 1; k <= d/2; k++ {
			e := norm(u, (u+k)%n)
			g.set[e] = true
			g.edges = append(g.edges, e)
		}
	}
	for swaps := 0; swaps < 20*len(g.edges); {
		i, j := rng.Intn(len(g.edges)), rng.Intn(len(g.edges))
		a, b := g.edges[i], g.edges[j]
		e, f := norm(a[0], b[0]), norm(a[1], b[1])
		if rng.Intn(2) == 1 {
			e, f = norm(a[0], b[1]), norm(a[1], b[0])
		}
		if e[0] == e[1] || f[0] == f[1] || e == f || g.set[e] || g.set[f] {
			continue
		}
		delete(g.set, a)
		delete(g.set, b)
		g.set[e], g.set[f] = true, true
		g.edges[i], g.edges[j] = e, f
		swaps++
	}
	return g
}

// addRandom adds k new distinct edges and returns them.
func (g *graphData) addRandom(rng *rand.Rand, k int) [][2]int {
	var out [][2]int
	for len(out) < k {
		u, v := rng.Intn(g.n), rng.Intn(g.n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if g.set[e] {
			continue
		}
		g.set[e] = true
		g.edges = append(g.edges, e)
		out = append(out, e)
	}
	return out
}

// addClosing adds k new edges by triadic closure, each joining two nodes
// that share a neighbour, the way friendship graphs grow, and returns them.
// Every such edge closes a triangle, so every append changes what the
// triangle workloads see and the next release re-solves the ladder.
func (g *graphData) addClosing(rng *rand.Rand, k int) [][2]int {
	adj := make([][]int, g.n)
	for _, e := range g.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	var out [][2]int
	for tries := 0; len(out) < k; tries++ {
		if tries > 100*g.n {
			return append(out, g.addRandom(rng, k-len(out))...)
		}
		nb := adj[rng.Intn(g.n)]
		if len(nb) < 2 {
			continue
		}
		u, v := nb[rng.Intn(len(nb))], nb[rng.Intn(len(nb))]
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if u == v || g.set[e] {
			continue
		}
		g.set[e] = true
		g.edges = append(g.edges, e)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		out = append(out, e)
	}
	return out
}

func (g *graphData) clone() *graphData {
	c := &graphData{n: g.n, edges: append([][2]int(nil), g.edges...), set: make(map[[2]int]bool, len(g.set))}
	for e := range g.set {
		c.set[e] = true
	}
	return c
}

// edgeList renders edges in recmechd's edge-list format; header adds the
// "# nodes N" line.
func edgeList(n int, edges [][2]int, header bool) string {
	var b strings.Builder
	if header {
		fmt.Fprintf(&b, "# nodes %d\n", n)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
	}
	return b.String()
}

// workload produces the set-up ops and then one cycle of ops at a time.
type workload interface {
	setup() []op
	cycle() []op
	// sizes describes the generated inputs, for the provenance lines.
	sizes() string
}

// gen is the op stream of one (workload, seed).
type gen struct {
	w     workload
	queue []op
}

func newGen(name string, seed int64) (*gen, error) {
	rng := rand.New(rand.NewSource(seed))
	var w workload
	switch name {
	case "sql-join":
		w = newSQLJoin(rng)
	case "graph-fresh":
		w = newGraphFresh(rng)
	case "graph-churn":
		w = newGraphChurn(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want sql-join, graph-fresh or graph-churn)", name)
	}
	return &gen{w: w}, nil
}

func (g *gen) next() op {
	for len(g.queue) == 0 {
		g.queue = g.w.cycle()
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	return o
}

// hitEps gives hit number i an ε of its own, so every hit misses the release
// cache while the plan's memoized ladder still covers it.
func hitEps(i int) float64 { return 0.5 + 1e-6*float64(i+1) }

const freshEps = 0.5

func queryOp(class string, q queryBody) op {
	return op{kind: opQuery, class: class, group: groupOf(q), dataset: q.Dataset, q: q}
}

// groupOf names a query's shape: its kind, privacy and k, and for SQL which
// of sqlShapes it instantiates.
func groupOf(q queryBody) string {
	g := fmt.Sprintf("%s/%s/%d", q.Kind, q.Privacy, q.K)
	for i, s := range sqlShapes {
		if q.Kind == "sql" && strings.HasPrefix(q.Query, s[:strings.Index(s, "%s")]) {
			g += fmt.Sprintf("/shape%d", i)
		}
	}
	return g
}

func prepareOp(q queryBody) op {
	return op{kind: opPrepare, dataset: q.Dataset, q: q}
}

// deleteOp deletes a dataset whose ops are done, so the server's state does
// not grow with the length of a run.
func deleteOp(name string) op {
	return op{kind: opDelete, dataset: name, scaffold: true}
}

// graphUpload uploads a snapshot of g: a cycle's ops are all generated
// before the first of them runs, so later ops may still grow g.
func graphUpload(name string, g *graphData) op {
	return op{kind: opUpload, dataset: name, graph: g.clone(),
		up: uploadBody{Kind: "graph", Graph: edgeList(g.n, g.edges, true)}}
}

// hitReplay returns a hit at a fresh ε and the identical request again.
func hitReplay(q queryBody, hit int) []op {
	q.Epsilon = hitEps(hit)
	return []op{queryOp(classHit, q), queryOp(classReplay, q)}
}

// graphKinds are the three graph workloads: node-private triangles,
// edge-private triangles and node-private 2-triangles, in exact mode.
func graphKinds(ds string) []queryBody {
	return []queryBody{
		{Dataset: ds, Kind: "triangles", Mode: "exact", Epsilon: freshEps},
		{Dataset: ds, Kind: "triangles", Privacy: "edge", Mode: "exact", Epsilon: freshEps},
		{Dataset: ds, Kind: "ktriangles", K: 2, Mode: "exact", Epsilon: freshEps},
	}
}

// graphAppend adds k triadic-closure edges to g (in place) and returns the
// append op, which makes the server advance the dataset's cached plans in
// the background, followed by one settled after-append query per workload
// in after.
func graphAppend(rng *rand.Rand, ds string, g *graphData, k, cached int, after []queryBody) []op {
	added := g.addClosing(rng, k)
	ops := []op{{kind: opAppend, class: classAppend, dataset: ds, graph: g.clone(), added: added,
		ap: appendBody{Edges: edgeList(0, added, false)}, rewarm: cached}}
	for i, q := range after {
		o := queryOp(classAfterAppend, q)
		o.settle = i == 0
		ops = append(ops, o)
	}
	return ops
}

// ---- sql-join ----

// sqlJoin: one relational dataset on a durable server, a node-private
// friendship table e(x, y) stored in both directions with each row
// annotated p_x & p_y. Each round sends three distinct queries over
// unrestricted self-joins (a varying constant makes each one miss both
// caches) and hit/replay pairs on the same three shapes, prepared; every few
// rounds one friendship is appended.
type sqlJoin struct {
	rng      *rand.Rand
	cur      *graphData
	prepared []queryBody
	fresh    int
	hits     int
	appends  int
}

const (
	sqlPeople      = 30
	sqlFriends     = 4  // per person: 60 friendships
	sqlPairs       = 6  // hit/replay pairs per round
	sqlAppendEvery = 12 // rounds of fresh queries and pairs between appends
	sqlResetEvery  = 1  // appends before the table is replaced by a new one
)

// sqlShapes are the three query shapes; %s is the varying constant.
var sqlShapes = []string{
	// common friends: pairs joined through a third person
	"SELECT x, y FROM e, e(x, w), e(y, w) WHERE x < y AND w != '%s'",
	// triangles
	"SELECT x, y, z FROM e, e(y, z), e(x, z) WHERE x < y AND y < z AND z != '%s'",
	// filtered selection
	"SELECT x, y FROM e WHERE x < y AND y != '%s'",
}

func newSQLJoin(rng *rand.Rand) *sqlJoin {
	w := &sqlJoin{rng: rng}
	for _, s := range sqlShapes {
		w.prepared = append(w.prepared, queryBody{Dataset: "social", Kind: "sql", Query: fmt.Sprintf(s, "none"), Epsilon: freshEps})
	}
	return w
}

func person(i int) string { return fmt.Sprintf("u%02d", i) }

// friendRows renders friendships as e(x, y) rows, both directions.
func friendRows(fs [][2]int) string {
	var b strings.Builder
	for _, f := range fs {
		x, y := person(f[0]), person(f[1])
		fmt.Fprintf(&b, "%s %s @ p%s & p%s\n%s %s @ p%s & p%s\n", x, y, x, y, y, x, y, x)
	}
	return b.String()
}

// reset uploads a new random friendship table over the dataset, everyone
// with sqlFriends friends, and prepares the three workloads on it. Each run
// covers many tables, so its figures do not hang on one table's structure.
func (w *sqlJoin) reset() []op {
	w.cur = newRegular(w.rng, sqlPeople, sqlFriends)
	ops := []op{{kind: opUpload, dataset: "social",
		up: uploadBody{Kind: "relational", Tables: map[string]string{"e": "x y\n" + friendRows(w.cur.edges)}}}}
	for _, q := range w.prepared {
		ops = append(ops, prepareOp(q))
	}
	return ops
}

func (w *sqlJoin) setup() []op { return w.reset() }

// cycle is one append period: sqlAppendEvery rounds of fresh queries and
// hit/replay pairs, then one append and a query on each prepared workload.
func (w *sqlJoin) cycle() []op {
	var ops []op
	for round := 0; round < sqlAppendEvery; round++ {
		for _, s := range sqlShapes {
			w.fresh++
			ops = append(ops, queryOp(classFresh, queryBody{Dataset: "social", Kind: "sql",
				Query: fmt.Sprintf(s, fmt.Sprintf("v%d", w.fresh)), Epsilon: freshEps}))
		}
		for i := 0; i < sqlPairs; i++ {
			ops = append(ops, hitReplay(w.prepared[w.hits%len(w.prepared)], w.hits)...)
			w.hits++
		}
	}
	if w.appends > 0 && w.appends%sqlResetEvery == 0 {
		ops = append(ops, scaffold(w.reset())...)
	}
	w.appends++
	added := w.cur.addClosing(w.rng, 1)
	ops = append(ops, op{kind: opAppend, class: classAppend, dataset: "social",
		ap: appendBody{Rows: map[string]string{"e": friendRows(added)}}})
	// Relational appends have no incremental path: the prepared plans are
	// purged and the first query on each recompiles.
	for _, q := range w.prepared {
		ops = append(ops, queryOp(classAfterAppend, q))
	}
	return ops
}

func (w *sqlJoin) sizes() string {
	return fmt.Sprintf("datasets=1 people=%d friendships=%d rows=%d shapes=%d pairs_per_round=%d rounds_per_append=%d appends_per_table=%d",
		sqlPeople, sqlPeople*sqlFriends/2, sqlPeople*sqlFriends, len(sqlShapes), sqlPairs, sqlAppendEvery, sqlResetEvery)
}

func scaffold(ops []op) []op {
	for i := range ops {
		ops[i].scaffold = true
	}
	return ops
}

// ---- graph-fresh ----

// graphFresh: many distinct 150-node graphs, each compiled from scratch by
// its first query of each of the three workloads. Hits and replays follow
// on the freshly compiled plans, then each graph takes an append, every
// second one followed by a query on each workload, and is deleted.
type graphFresh struct {
	rng      *rand.Rand
	graphs   []*graphData
	uploaded int
	next     int
	hits     int
}

const (
	freshNodes       = 150
	freshEdges       = 600 // average degree 8
	freshPairs       = 16  // hit/replay pairs per graph
	freshAppendEvery = 2   // graphs per append followed by queries
	freshAppendEdges = 3
	freshUploadBatch = 16
)

func newGraphFresh(rng *rand.Rand) *graphFresh { return &graphFresh{rng: rng} }

func freshName(i int) string { return fmt.Sprintf("g%04d", i) }

// upload generates and uploads the next k graphs.
func (w *graphFresh) upload(k int) []op {
	var ops []op
	for i := 0; i < k; i++ {
		g := newGraph(w.rng, freshNodes, freshEdges)
		w.graphs = append(w.graphs, g)
		ops = append(ops, graphUpload(freshName(w.uploaded), g))
		w.uploaded++
	}
	return ops
}

func (w *graphFresh) setup() []op { return w.upload(freshUploadBatch) }

// cycle is freshAppendEvery new graphs, each compiled by its first query of
// every workload, hit and replayed, and then appended to; the last one then
// takes a query on each of its workloads. Each graph is deleted after its
// last op, once the server has advanced its plans.
func (w *graphFresh) cycle() []op {
	var ops []op
	for j := 0; j < freshAppendEvery; j++ {
		if w.next == w.uploaded {
			ops = append(ops, scaffold(w.upload(freshUploadBatch))...)
		}
		i := w.next
		w.next++
		kinds := graphKinds(freshName(i))
		for _, q := range kinds {
			ops = append(ops, queryOp(classFresh, q))
		}
		for p := 0; p < freshPairs; p++ {
			ops = append(ops, hitReplay(kinds[w.hits%len(kinds)], w.hits)...)
			w.hits++
		}
		var after []queryBody
		if j == freshAppendEvery-1 {
			after = kinds
		}
		ops = append(ops, graphAppend(w.rng, freshName(i), w.graphs[i], freshAppendEdges, len(kinds), after)...)
		del := deleteOp(freshName(i))
		del.settle = true
		ops = append(ops, del)
		w.graphs[i] = nil
	}
	return ops
}

func (w *graphFresh) sizes() string {
	return fmt.Sprintf("nodes=%d edges=%d graphs_per_upload=%d kinds=3 pairs_per_graph=%d queried_append_every=%d append_edges=%d",
		freshNodes, freshEdges, freshUploadBatch, freshPairs, freshAppendEvery, freshAppendEdges)
}

// ---- graph-churn ----

// graphChurn: one 150-node graph at a time with the three workloads
// prepared at zero ε. A fixed schedule alternates fresh-ε plan hits with
// identical replays; every cycle ends with two few-edge appends, one settled
// query per prepared workload, and first queries on small side graphs,
// each deleted after its query.
type graphChurn struct {
	rng      *rand.Rand
	cur      *graphData
	prepared []queryBody
	sides    int // side graphs uploaded
	side     int // side graphs queried
	hits     int
	cycles   int
}

const (
	churnNodes       = 150
	churnEdges       = 600
	churnPairs       = 150 // hit/replay pairs per cycle
	churnAppendEdges = 3
	// churnAppends is appends per cycle. A PATCH races the background
	// re-warm it starts, so single appends take 1–7 ms and append_p50_ms
	// needs more samples than the after-append queries, which cost ~160 ms
	// each, leave room for; the appends before the last one are followed
	// by the next append rather than by queries.
	churnAppends     = 2
	churnResetEvery  = 2 // cycles before the graph is replaced by a new one
	sideNodes        = 60
	sideEdges        = 180 // average degree 6
	sideBatch        = 32
	churnSideQueries = 2 // first queries on side graphs per cycle
)

func newGraphChurn(rng *rand.Rand) *graphChurn {
	return &graphChurn{rng: rng, prepared: graphKinds("churn")}
}

func sideName(i int) string { return fmt.Sprintf("side%04d", i) }

// reset uploads a new random graph over the dataset and prepares the three
// workloads on it at zero ε; each run covers several graphs.
func (w *graphChurn) reset() []op {
	w.cur = newGraph(w.rng, churnNodes, churnEdges)
	ops := []op{graphUpload("churn", w.cur)}
	for _, q := range w.prepared {
		ops = append(ops, prepareOp(q))
	}
	return ops
}

func (w *graphChurn) uploadSides() []op {
	var ops []op
	for i := 0; i < sideBatch; i++ {
		ops = append(ops, graphUpload(sideName(w.sides), newGraph(w.rng, sideNodes, sideEdges)))
		w.sides++
	}
	return ops
}

func (w *graphChurn) setup() []op { return append(w.reset(), w.uploadSides()...) }

// cycle is hit/replay pairs on the prepared workloads, churnAppends
// appends with a query on each workload after the last, and first queries
// on new side graphs.
func (w *graphChurn) cycle() []op {
	var ops []op
	for p := 0; p < churnPairs; p++ {
		ops = append(ops, hitReplay(w.prepared[w.hits%len(w.prepared)], w.hits)...)
		w.hits++
	}
	if w.cycles > 0 && w.cycles%churnResetEvery == 0 {
		ops = append(ops, scaffold(w.reset())...)
	}
	w.cycles++
	for i := 0; i < churnAppends; i++ {
		var after []queryBody
		if i == churnAppends-1 {
			after = w.prepared
		}
		ap := graphAppend(w.rng, "churn", w.cur, churnAppendEdges, len(w.prepared), after)
		// Each append finds the server idle, as the first one does.
		ap[0].settle = i > 0
		ops = append(ops, ap...)
	}
	for i := 0; i < churnSideQueries; i++ {
		if w.side == w.sides {
			ops = append(ops, scaffold(w.uploadSides())...)
		}
		ops = append(ops, queryOp(classFresh, queryBody{Dataset: sideName(w.side), Kind: "triangles", Mode: "exact", Epsilon: freshEps}),
			deleteOp(sideName(w.side)))
		w.side++
	}
	return ops
}

func (w *graphChurn) sizes() string {
	return fmt.Sprintf("nodes=%d edges=%d kinds=3 pairs_per_cycle=%d appends_per_cycle=%d append_edges=%d reset_every=%d side_nodes=%d side_edges=%d",
		churnNodes, churnEdges, churnPairs, churnAppends, churnAppendEdges, churnResetEvery, sideNodes, sideEdges)
}

// sortedNames returns m's keys in order.
func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
