package main

import (
	"bytes"
	"fmt"
	"testing"
)

var workloadNames = []string{"sql-join", "graph-fresh", "graph-churn"}

// stream renders a seed's set-up ops and its first n stream ops: every
// request byte the benchmark would send, with its class and flags.
func stream(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGen(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	emit := func(o op) {
		fmt.Fprintf(&b, "%d %s %s %s %d %v %v %s\n", o.kind, o.class, o.group, o.dataset, o.rewarm, o.settle, o.scaffold, encode(&o))
	}
	for _, o := range g.w.setup() {
		emit(o)
	}
	for i := 0; i < n; i++ {
		emit(g.next())
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, b := stream(t, w, 1, 3000), stream(t, w, 1, 3000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 produced two different input streams", w)
		}
		if bytes.Equal(a, stream(t, w, 2, 3000)) {
			t.Errorf("%s: seeds 1 and 2 produced the same input stream", w)
		}
	}
}

// TestHoldOutSeedRunsClean drives seed 2, the hold-out seed for later
// claims, through the in-process service until every op class has been
// served, and requires every output check to pass.
func TestHoldOutSeedRunsClean(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			c := config{workload: w, durable: durable[w], seed: 2, work: t.TempDir()}
			tx, err := newTracedExec(c)
			if err != nil {
				t.Fatal(err)
			}
			defer tx.close()
			g, err := newGen(w, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(tx, g)
			tx.r = r
			r.setup()
			r.timed = true
			for i := 0; i < 20000 && r.checkErr == nil && !allClasses(r); i++ {
				r.step(g.next())
			}
			r.checkBudgets()
			if r.checkErr != nil {
				t.Fatal(r.checkErr)
			}
			if !allClasses(r) || r.failed != 0 {
				t.Fatalf("after %d ops: %d failed, latencies per class %v", r.ops, r.failed, counts(r))
			}
		})
	}
}

func allClasses(r *runner) bool {
	for _, cl := range classes {
		if len(r.lat[cl]) == 0 {
			return false
		}
	}
	return true
}

func counts(r *runner) map[string]int {
	m := map[string]int{}
	for _, cl := range classes {
		m[cl] = len(r.lat[cl])
	}
	return m
}
