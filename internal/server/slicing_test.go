package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tdd/internal/workload"
)

// distractorUnit is the E19 workload: a period-2 relevant chain plus
// three distractor cycles that blow the full period up to 210.
func distractorUnit() string {
	rules, facts := workload.Distractor([]int{3, 5, 7}, 4)
	return rules + facts
}

// TestSlicedServingMatchesFull drives the same query set through a
// slicing server and a plain one: every answer must agree, and the
// slicing server must label its asks with the "sliced" engine.
func TestSlicedServingMatchesFull(t *testing.T) {
	_, sliced := newTestServer(t, Config{Slicing: true})
	_, plain := newTestServer(t, Config{})
	unit := distractorUnit()
	sid := register(t, sliced.URL, unit)
	pid := register(t, plain.URL, unit)

	queries := []string{
		"q(1000000, c0)",     // even depth: yes
		"q(1000001, c0)",     // odd depth: no
		"exists T q(T, c0)",  // witnessed
		"exists T q(T, c1)",  // relevant but witness-free
		"exists T d0(T, j0)", // distractor-only goal
		"!q(3, c0)",          // negation
		"forall X !q(5, X)",  // constant quantifier (eligibility path)
	}
	for _, q := range queries {
		if got, want := askServed(t, sliced.URL, sid, q), askServed(t, plain.URL, pid, q); got != want {
			t.Errorf("ask %q: sliced server %v, plain server %v", q, got, want)
		}
	}

	// The slicing server reports the sliced engine on its ask responses.
	resp, body := postJSON(t, sliced.URL+"/programs/"+sid+"/ask", askRequest{Query: "q(1000000, c0)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d: %s", resp.StatusCode, body)
	}
	var ar askResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Engine != "sliced" {
		t.Errorf("engine = %q, want sliced", ar.Engine)
	}
}

// TestDebugGraph covers the introspection endpoint: the dependency
// graph for a registered program, optionally with a query's slice.
func TestDebugGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{Slicing: true})
	id := register(t, ts.URL, distractorUnit())

	resp, body := getJSON(t, ts.URL+"/debug/graph?id="+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph: status %d: %s", resp.StatusCode, body)
	}
	var out debugGraphResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Slicing {
		t.Error("slicing flag not reported")
	}
	if len(out.Graph.Preds) == 0 || len(out.Graph.SCCs) == 0 {
		t.Fatalf("empty graph report: %s", body)
	}
	if !strings.Contains(out.Rendered, "dependency graph") {
		t.Errorf("rendered graph missing header:\n%s", out.Rendered)
	}
	if out.Slice != nil {
		t.Error("slice present without &q=")
	}

	resp, body = getJSON(t, fmt.Sprintf("%s/debug/graph?id=%s&q=%s", ts.URL, id, "q(4,+c0)"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph+slice: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Slice == nil {
		t.Fatalf("no slice for &q=: %s", body)
	}
	if !out.Slice.Proper || len(out.Slice.Preds) >= len(out.Graph.Preds) {
		t.Errorf("slice for q should be proper and smaller: %+v", out.Slice)
	}

	// Parameter validation: missing id is a 400, unknown id a 404.
	resp, _ = getJSON(t, ts.URL+"/debug/graph")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id: status %d, want 400", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/debug/graph?id=doesnotexist")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestSlicedServingSurvivesIngest: an ingested batch keeps the program
// on the sliced path — the successor entry inherits the slicing option
// its forked database was opened with — and the new fact is answered.
func TestSlicedServingSurvivesIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{Slicing: true})
	id := register(t, ts.URL, distractorUnit())
	ingest(t, ts.URL, id, "q(1, c1).\n")

	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "q(1000001, c1)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d: %s", resp.StatusCode, body)
	}
	var ar askResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Result || ar.Engine != "sliced" {
		t.Errorf("after ingest: result %v engine %q, want true from sliced", ar.Result, ar.Engine)
	}
	resp, body = getJSON(t, ts.URL+"/debug/graph?id="+id)
	var g debugGraphResponse
	if err := json.Unmarshal(body, &g); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("graph: status %d: %s", resp.StatusCode, body)
	}
	if !g.Slicing {
		t.Error("graph reports slicing off after ingest")
	}
}

// TestDebugGraphAdmission: /debug/graph may compile an evicted program,
// so it runs through the same shard gate, worker pool, and deadline as
// every program route. Under an immediate deadline it must come back
// 503 with the timeout counted, not run the lookup on the HTTP
// goroutine.
func TestDebugGraphAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	ent, _, err := s.Registry().Register(evenUnit, "", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := getJSON(t, ts.URL+"/debug/graph?id="+ent.ID())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	snap := s.snapshot()
	if got := snap.Routes["debug_graph"].Timeouts; got != 1 {
		t.Errorf("debug_graph timeouts = %d, want 1", got)
	}
	if snap.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", snap.Timeouts)
	}
}
