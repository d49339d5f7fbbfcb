// Command e2ebench is recmechd's end-to-end benchmark. It starts recmechd as
// its own process, drives it over one keep-alive HTTP connection in a closed
// loop with inputs generated from -seed, checks every answer, and prints the
// end-to-end metrics. With -trace 1 it instead reports per-layer metrics:
// counter deltas from the same HTTP run, and span timings from a separate
// in-process run that replays the same inputs through each layer's public
// functions.
//
// Run it from the repository root through e2ebench/run.sh, which builds
// recmechd and this command first:
//
//	bash e2ebench/run.sh --workload graph-churn --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A failed output check is named on standard error and the command exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// durable tells, for each workload, whether its server keeps its data in a
// -data-dir in a scratch directory; the others run in memory. Every server
// otherwise runs with recmechd's default settings.
var durable = map[string]bool{
	"sql-join":    true,
	"graph-fresh": false,
	"graph-churn": false,
}

const (
	// setups is how many times set-up runs per invocation; setup_s is
	// their median and the last one's server runs the timed phase.
	setups = 5
	// nSlices is how many consecutive parts the timed phase is cut into.
	nSlices = 6
	// maxSteal is the share of the machine's CPU time the hypervisor may
	// take in a slice (steal) for the slice to count as quiet.
	maxSteal = 0.02
)

// quietSlices returns the slices the end-to-end metrics are taken from:
// those in which the hypervisor took at most maxSteal of the machine's CPU
// time, or, when fewer than half of them are that quiet, the least-stolen
// half. On a shared host, other machines' load comes in phases that slow
// every figure of a run by up to half; this keeps those phases out of the
// figures wherever a run also had quiet time.
func quietSlices(all []*slice) []*slice {
	s := append([]*slice(nil), all...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	keep := (len(s) + 1) / 2
	for keep < len(s) && s[keep].steal <= maxSteal {
		keep++
	}
	return s[:keep]
}

// setupSeed is the input seed of set-up i. The last set-up's server runs
// the timed phase on the run's own seed; each earlier one gets inputs of
// its own, so setup_s covers several datasets rather than one.
func setupSeed(seed int64, i int) int64 {
	if i == setups-1 {
		return seed
	}
	return seed + int64(i+1)*1_000_003
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	durable  bool
	trace    bool // per-layer run: the server also reports every GC cycle
	seed     int64
	seconds  time.Duration
	recmechd string
	work     string // scratch directory for data dirs, logs and spans
}

func main() {
	var (
		c       config
		trace   int
		seconds float64
		commit  string
	)
	flag.StringVar(&c.workload, "workload", "", "sql-join, graph-fresh or graph-churn")
	flag.Int64Var(&c.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&c.recmechd, "recmechd", "", "recmechd binary to benchmark")
	flag.StringVar(&c.work, "work", "", "scratch directory (created, then removed)")
	flag.StringVar(&commit, "commit", "unknown", "source revision, for the provenance line")
	flag.Parse()
	isDurable, ok := durable[c.workload]
	if !ok || c.recmechd == "" || c.work == "" || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -workload sql-join|graph-fresh|graph-churn, -recmechd, -work, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	c.durable, c.trace = isDurable, trace == 1
	c.seconds = time.Duration(seconds * float64(time.Second))
	c.work = filepath.Join(c.work, fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(c.work)

	// The client holds one connection and needs one thread for it; the
	// traced run mirrors the server and gets every CPU.
	runtime.GOMAXPROCS(1)
	g, err := newGen(c.workload, c.seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%d\n", c.workload, c.seed, seconds, trace)
	fmt.Printf("# sizes %s\n", g.w.sizes())

	var res *result
	if trace == 0 {
		res, err = endToEnd(c)
	} else {
		res, err = perLayer(c)
	}
	if err != nil {
		os.RemoveAll(c.work)
		fatal(err)
	}
	fmt.Printf("# host nproc=%d client_gomaxprocs=1 traced_gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.NumCPU(), runtime.Version(), commit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(c.work)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// startWorkloadServer starts recmechd configured for the workload; dir holds
// a durable workload's data directory.
func startWorkloadServer(c config, dir string, seed int64) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-budget", "1e9", "-seed", strconv.FormatInt(seed, 10)}
	if c.durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	} else {
		// An in-memory recmechd refuses to start without a dataset.
		args = append(args, "-demo")
	}
	return startServer(c.recmechd, args, c.trace)
}

// httpRun is one set-up plus, when d > 0, a timed phase over HTTP.
type httpRun struct {
	setup    time.Duration
	elapsed  time.Duration
	r        *runner
	counters map[string]float64 // timed-phase deltas, scaffold excluded
	rssMiB   float64
	srvProcs int
}

// runHTTP sets up a server on the inputs of seed and, when d > 0, runs a
// timed phase of d in n slices.
func runHTTP(c config, seed int64, d time.Duration, n int) (*httpRun, error) {
	dir := filepath.Join(c.work, fmt.Sprintf("server-%d", seed))
	defer os.RemoveAll(dir)
	g, _ := newGen(c.workload, seed)
	t0 := time.Now()
	srv, err := startWorkloadServer(c, dir, seed)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ex := httpExec{srv}
	run := &httpRun{r: newRunner(ex, g)}
	run.r.setup()
	run.setup = time.Since(t0)
	if run.r.checkErr != nil || d == 0 {
		return run, nil
	}
	before, err := ex.counters()
	if err != nil {
		return nil, err
	}
	run.elapsed = run.r.runFor(d, n)
	after, err := ex.counters()
	if err != nil {
		return nil, err
	}
	run.counters = map[string]float64{}
	for k, v := range after {
		run.counters[k] = v - before[k] - run.r.excluded[k]
	}
	run.r.checkBudgets()
	st, err := ex.stats()
	if err != nil {
		return nil, err
	}
	run.srvProcs = st.Runtime.GOMAXPROCS
	if run.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return run, nil
}

func endToEnd(c config) (*result, error) {
	var setupS []float64
	var run *httpRun
	for i := 0; i < setups; i++ {
		d := time.Duration(0)
		if i == setups-1 {
			d = c.seconds
		}
		var err error
		if run, err = runHTTP(c, setupSeed(c.seed, i), d, nSlices); err != nil {
			return nil, err
		}
		if run.r.checkErr != nil {
			break
		}
		setupS = append(setupS, run.setup.Seconds())
	}
	r := run.r
	fmt.Printf("# server gomaxprocs=%d\n", run.srvProcs)
	printClasses(r)
	for i, s := range r.slices {
		for _, cl := range []string{classFresh, classHit, classReplay} {
			if len(s.lat[cl]) == 0 {
				r.fail("samples", "no %s op completed in slice %d of the timed phase", cl, i)
			}
		}
	}
	for _, cl := range classes {
		if len(r.lat[cl]) == 0 {
			r.fail("samples", "no %s op completed in the timed phase", cl)
		}
	}
	res := &result{Correct: r.checkErr == nil, Attempted: max(r.ops, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if r.checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", r.checkErr)
		return res, nil
	}
	m := res.Metrics
	quiet := quietSlices(r.slices)
	// perSlice is the median over the quiet slices of f.
	perSlice := func(f func(s *slice) float64) float64 {
		var xs []float64
		for _, s := range quiet {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	// Fresh queries, hits and replays are many in every slice; appends and
	// after-append queries are a few per slice, too few for a slice's own
	// median, so theirs is taken over the quiet slices together.
	latency := func(class string, q float64) float64 {
		if class == classAppend || class == classAfterAppend {
			var xs []float64
			for _, s := range quiet {
				xs = append(xs, s.lat[class]...)
			}
			return quantile(xs, q)
		}
		return perSlice(func(s *slice) float64 { return quantile(s.lat[class], q) })
	}
	fmt.Printf("# slices (* quiet)")
	for _, s := range r.slices {
		mark := ""
		if slices.Contains(quiet, s) {
			mark = "*"
		}
		fmt.Printf(" [%s%d ops in %.3fs, steal %.1f%%, fresh_p50 %.4g ms]", mark, s.ops, s.elapsed.Seconds(),
			100*s.steal, quantile(s.lat[classFresh], 0.5))
	}
	fmt.Println()
	m["setup_s"] = metric{median(setupS), "s"}
	m["ops_per_s"] = metric{perSlice(func(s *slice) float64 { return float64(s.ops) / s.elapsed.Seconds() }), "1/s"}
	m["fresh_p50_ms"] = metric{latency(classFresh, 0.5), "ms"}
	m["fresh_p90_ms"] = metric{latency(classFresh, 0.9), "ms"}
	m["hit_p50_ms"] = metric{latency(classHit, 0.5), "ms"}
	m["replay_p50_ms"] = metric{latency(classReplay, 0.5), "ms"}
	m["append_p50_ms"] = metric{latency(classAppend, 0.5), "ms"}
	m["after_append_p50_ms"] = metric{latency(classAfterAppend, 0.5), "ms"}
	m["server_cpu_ms_per_op"] = metric{perSlice(func(s *slice) float64 { return s.cpuMs / float64(s.ops) }), "ms"}
	m["server_rss_mb"] = metric{run.rssMiB, "MiB"}
	m["eps_per_op"] = metric{r.eps / float64(r.ops), "eps"}
	// The hit tail is printed but not in the result: on a durable server
	// it follows the host's fsync latency, which swings between identical
	// runs by more than any bound the result allows.
	fmt.Printf("# not gated: hit_p90_ms %.4f ms, hit_p99_ms %.4f ms\n",
		quantile(r.lat[classHit], 0.9), quantile(r.lat[classHit], 0.99))
	return res, nil
}

func printClasses(r *runner) {
	fmt.Printf("# ops attempted=%d failed=%d", r.ops, r.failed)
	for _, cl := range classes {
		fmt.Printf(" %s=%d", cl, len(r.lat[cl]))
	}
	fmt.Println()
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
