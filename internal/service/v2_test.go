package service_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"recmech"
)

// newTestServerCfg is newTestServer with full config control.
func newTestServerCfg(t testing.TB, cfg recmech.ServiceConfig) (*httptest.Server, *recmech.Service) {
	t.Helper()
	svc := recmech.NewService(cfg)

	g := recmech.NewGraph(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	svc.AddGraph("g", g)

	u := recmech.NewUniverse()
	rel, err := recmech.LoadTable(strings.NewReader(visitsTable), u)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	db := recmech.NewQueryDatabase()
	db.Register("visits", rel)
	svc.AddRelational("med", u, db)

	ts := httptest.NewServer(recmech.NewServiceHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

// doJSON lives in persist_test.go and is shared by this file.

func httpErrCode(t testing.TB, raw []byte) string {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("unmarshal error body %q: %v", raw, err)
	}
	return errCode(t, body)
}

// TestV2PrepareAndQuery drives the compile/execute lifecycle over HTTP:
// prepare spends zero ε, the next query pays only the noise draw, and
// /v2/query answers exactly like the /v1 shim.
func TestV2PrepareAndQuery(t *testing.T) {
	ts, svc := newTestServer(t, 2.0)

	prep := recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles}
	code, raw := doJSON(t, "POST", ts.URL+"/v2/prepare", prep)
	if code != 200 {
		t.Fatalf("prepare: code %d body %s", code, raw)
	}
	var info recmech.PrepareInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Dataset != "g" || info.AlreadyPrepared {
		t.Fatalf("first prepare: %+v", info)
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v2/prepare", prep)
	if code != 200 {
		t.Fatalf("second prepare: code %d", code)
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if !info.AlreadyPrepared {
		t.Fatalf("second prepare missed the plan cache: %+v", info)
	}
	// Zero ε spent by preparation.
	st, err := svc.Budget("g")
	if err != nil || st.Spent != 0 || st.Reserved != 0 {
		t.Fatalf("prepare touched the budget: %+v %v", st, err)
	}

	// The prepared query releases through /v2/query.
	code, raw = doJSON(t, "POST", ts.URL+"/v2/query",
		recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})
	if code != 200 {
		t.Fatalf("v2 query: code %d body %s", code, raw)
	}
	var resp recmech.ServiceResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Epsilon != 0.5 {
		t.Fatalf("v2 query: %+v", resp)
	}
	// The v1 shim replays the identical release.
	code, v1resp, _ := postQuery(t, ts, recmech.ServiceRequest{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5})
	if code != 200 || !v1resp.Cached || v1resp.Value != resp.Value {
		t.Fatalf("v1 shim diverged from v2: code %d %+v vs %+v", code, v1resp, resp)
	}

	// Prepare of invalid requests is typed like query validation.
	code, raw = doJSON(t, "POST", ts.URL+"/v2/prepare", recmech.ServiceRequest{Dataset: "nope", Kind: recmech.KindTriangles})
	if code != 404 || httpErrCode(t, raw) != "unknown_dataset" {
		t.Fatalf("prepare unknown dataset: code %d %s", code, raw)
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v2/prepare", recmech.ServiceRequest{Dataset: "g", Kind: "median"})
	if code != 400 || httpErrCode(t, raw) != "bad_request" {
		t.Fatalf("prepare bad kind: code %d %s", code, raw)
	}
}

func TestV2JobsEndToEnd(t *testing.T) {
	ts, svc := newTestServer(t, 2.0)

	batch := recmech.BatchRequest{Queries: []recmech.ServiceRequest{
		{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.5},
		{Dataset: "med", Kind: recmech.KindSQL, Query: "SELECT x FROM visits", Epsilon: 0.25},
		{Dataset: "g", Kind: recmech.KindKStars, K: 2, Epsilon: 0.25},
	}}
	code, raw := doJSON(t, "POST", ts.URL+"/v2/jobs", batch)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", code, raw)
	}
	var job recmech.JobInfo
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || len(job.Items) != 3 {
		t.Fatalf("submitted job: %+v", job)
	}

	// Poll until terminal (the work is microseconds; the loop is belt and
	// braces against scheduler hiccups).
	deadline := time.Now().Add(30 * time.Second)
	for job.State != recmech.JobStateDone && job.State != recmech.JobStateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.State)
		}
		time.Sleep(2 * time.Millisecond)
		code, raw = doJSON(t, "GET", ts.URL+"/v2/jobs/"+job.ID, nil)
		if code != 200 {
			t.Fatalf("poll: code %d body %s", code, raw)
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.State != recmech.JobStateDone {
		t.Fatalf("job failed: %+v", job)
	}
	for i, it := range job.Items {
		if it.State != "done" || it.Result == nil {
			t.Fatalf("item %d: %+v", i, it)
		}
		if math.IsNaN(it.Result.Value) || math.IsInf(it.Result.Value, 0) {
			t.Fatalf("item %d value: %v", i, it.Result.Value)
		}
	}
	// Per-item commits: g spent 0.75, med spent 0.25.
	if st, _ := svc.Budget("g"); math.Abs(st.Spent-0.75) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("g ledger: %+v", st)
	}
	if st, _ := svc.Budget("med"); math.Abs(st.Spent-0.25) > 1e-9 || st.Reserved != 0 {
		t.Fatalf("med ledger: %+v", st)
	}

	// The listing is sorted by id and contains the job.
	var listing struct {
		Jobs []recmech.JobInfo `json:"jobs"`
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v2/jobs", nil)
	if code != 200 {
		t.Fatalf("listing: code %d", code)
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for i, j := range listing.Jobs {
		if i > 0 && listing.Jobs[i-1].ID >= j.ID {
			t.Fatalf("job listing not sorted: %q before %q", listing.Jobs[i-1].ID, j.ID)
		}
		found = found || j.ID == job.ID
	}
	if !found {
		t.Fatalf("job %q missing from listing", job.ID)
	}

	// Canceling a finished job is a typed 409; unknown jobs are 404.
	code, raw = doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+job.ID, nil)
	if code != http.StatusConflict || httpErrCode(t, raw) != "job_finished" {
		t.Fatalf("cancel finished: code %d body %s", code, raw)
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v2/jobs/job-99999999", nil)
	if code != 404 || httpErrCode(t, raw) != "unknown_job" {
		t.Fatalf("unknown job: code %d body %s", code, raw)
	}
}

// TestV2JobsAtomicBudget rejects a batch whose sum exceeds the remaining
// budget with a typed 429 and an untouched ledger — all-or-nothing.
func TestV2JobsAtomicBudget(t *testing.T) {
	ts, svc := newTestServer(t, 1.0)
	batch := recmech.BatchRequest{Queries: []recmech.ServiceRequest{
		{Dataset: "g", Kind: recmech.KindTriangles, Epsilon: 0.6},
		{Dataset: "g", Kind: recmech.KindKStars, K: 2, Epsilon: 0.6},
	}}
	code, raw := doJSON(t, "POST", ts.URL+"/v2/jobs", batch)
	if code != http.StatusTooManyRequests || httpErrCode(t, raw) != "budget_exhausted" {
		t.Fatalf("over-budget batch: code %d body %s", code, raw)
	}
	if st, _ := svc.Budget("g"); st.Spent != 0 || st.Reserved != 0 {
		t.Fatalf("rejected batch moved the ledger: %+v", st)
	}

	// Empty and malformed batches are 400s.
	code, raw = doJSON(t, "POST", ts.URL+"/v2/jobs", recmech.BatchRequest{})
	if code != 400 || httpErrCode(t, raw) != "bad_request" {
		t.Fatalf("empty batch: code %d body %s", code, raw)
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v2/jobs", recmech.BatchRequest{Queries: []recmech.ServiceRequest{
		{Dataset: "g", Kind: "median", Epsilon: 0.1},
	}})
	if code != 400 {
		t.Fatalf("bad item: code %d body %s", code, raw)
	}
	if msg := string(raw); !strings.Contains(msg, "query[0]") {
		t.Fatalf("bad-item error does not name the item: %s", msg)
	}
}

// TestUploadTooLarge pins the typed 413: an upload over the configured
// limit is rejected without buffering and names the right error code; a
// small upload still works on the same server.
func TestUploadTooLarge(t *testing.T) {
	ts, _ := newTestServerCfg(t, recmech.ServiceConfig{
		DatasetBudget:  2.0,
		MaxUploadBytes: 512,
		Workers:        2,
		Seed:           7,
	})

	big := recmech.UploadRequest{Kind: "graph", Graph: strings.Repeat("0 1\n", 1024)}
	code, raw := doJSON(t, "PUT", ts.URL+"/v1/datasets/huge", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: code %d body %s", code, raw)
	}
	if httpErrCode(t, raw) != "request_too_large" {
		t.Fatalf("oversized upload code: %s", raw)
	}

	small := recmech.UploadRequest{Kind: "graph", Graph: "0 1\n1 2\n0 2\n"}
	code, raw = doJSON(t, "PUT", ts.URL+"/v1/datasets/tiny", small)
	if code != 200 {
		t.Fatalf("small upload after rejection: code %d body %s", code, raw)
	}
}

// TestDatasetListingDeterministic registers names out of order and checks
// the listing is sorted however often it is asked.
func TestDatasetListingDeterministic(t *testing.T) {
	ts, svc := newTestServer(t, 2.0)
	for _, name := range []string{"zeta", "alpha", "mike"} {
		g := recmech.NewGraph(3)
		g.AddEdge(0, 1)
		if err := svc.AddGraph(name, g); err != nil {
			t.Fatalf("AddGraph(%s): %v", name, err)
		}
	}
	want := []string{"alpha", "g", "med", "mike", "zeta"}
	for round := 0; round < 3; round++ {
		var dsBody struct {
			Datasets []recmech.DatasetInfo `json:"datasets"`
		}
		if code := getJSON(t, ts.URL+"/v1/datasets", &dsBody); code != 200 {
			t.Fatalf("datasets: code %d", code)
		}
		if len(dsBody.Datasets) != len(want) {
			t.Fatalf("listing: %+v", dsBody.Datasets)
		}
		for i, d := range dsBody.Datasets {
			if d.Name != want[i] {
				t.Fatalf("round %d: listing[%d] = %q, want %q", round, i, d.Name, want[i])
			}
		}
	}
}

// TestV2JobCancelHTTP exercises DELETE on a live job; the outcome races the
// tiny workload, so both "canceled in time" and "already finished" are
// legal — but the budget must balance either way, and the terminal state
// must be stable. The deterministic refund semantics are pinned by the
// internal TestJobCancelRefundsUnstarted.
func TestV2JobCancelHTTP(t *testing.T) {
	ts, svc := newTestServerCfg(t, recmech.ServiceConfig{
		DatasetBudget: 100,
		Workers:       1,
		Seed:          7,
	})
	queries := make([]recmech.ServiceRequest, 20)
	for i := range queries {
		queries[i] = recmech.ServiceRequest{
			Dataset: "med",
			Kind:    recmech.KindSQL,
			Query:   fmt.Sprintf("SELECT x, y FROM visits WHERE x != 'u%d'", i),
			Epsilon: 0.5,
		}
	}
	code, raw := doJSON(t, "POST", ts.URL+"/v2/jobs", recmech.BatchRequest{Queries: queries})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", code, raw)
	}
	var job recmech.JobInfo
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}

	code, raw = doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+job.ID, nil)
	switch code {
	case 200:
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		if job.State != recmech.JobStateCanceled {
			t.Fatalf("canceled job state: %+v", job)
		}
	case http.StatusConflict:
		// Finished before the DELETE landed; fine.
	default:
		t.Fatalf("cancel: code %d body %s", code, raw)
	}

	// Wait for the runner to settle the in-flight item, then audit: spent ε
	// equals 0.5 per completed item, nothing stays reserved. A canceled job
	// is terminal at once while its in-flight item still runs, and that
	// item commits its ε before the runner marks it done, so the wait also
	// needs every item out of the running state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, raw = doJSON(t, "GET", ts.URL+"/v2/jobs/"+job.ID, nil)
		if code != 200 {
			t.Fatalf("poll: code %d", code)
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		st, _ := svc.Budget("med")
		if terminalJobState(job.State) && st.Reserved == 0 && !anyItemRunning(job) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (ledger %+v)", job.State, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	done := 0
	for _, it := range job.Items {
		if it.State == "done" {
			done++
		} else if it.Result != nil {
			t.Fatalf("non-done item carries a result: %+v", it)
		}
	}
	st, _ := svc.Budget("med")
	if math.Abs(st.Spent-0.5*float64(done)) > 1e-9 {
		t.Fatalf("spent %v for %d done items", st.Spent, done)
	}
}

func anyItemRunning(job recmech.JobInfo) bool {
	for _, it := range job.Items {
		if it.State == "running" {
			return true
		}
	}
	return false
}

func terminalJobState(s string) bool {
	switch s {
	case recmech.JobStateDone, recmech.JobStateFailed, recmech.JobStateCanceled:
		return true
	}
	return false
}
