package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden files under testdata/")

// goldenConfig pins every sizing knob the metrics expose (workers, queue,
// shards, gates, cache) so the goldens do not depend on the machine.
func goldenConfig(dir string) Config {
	return Config{
		Workers: 2, Queue: 8, CacheSize: 2, Shards: 2, ShardQueue: 1,
		DataDir: dir, Fsync: "always", SnapshotEvery: 2,
		RequestTimeout: 30 * time.Second,
	}
}

// goldenTraffic drives a fixed, strictly sequential request script that
// touches every route and every counter a single client can move
// deterministically: registrations (new, existing, malformed), warm and
// traced asks and answers, ingests with a snapshot, every per-program
// GET, the debug group, 400/404 errors, and two shed verdicts.
func goldenTraffic(t *testing.T, s *Server, base string) {
	t.Helper()
	expect := func(resp *http.Response, body []byte, want int) {
		t.Helper()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, want, body)
		}
	}
	get := func(path string, want int) {
		t.Helper()
		resp, body := getJSON(t, base+path)
		expect(resp, body, want)
	}
	post := func(path string, req any, want int) {
		t.Helper()
		resp, body := postJSON(t, base+path, req)
		expect(resp, body, want)
	}

	get("/healthz", http.StatusOK)
	even := register(t, base, evenUnit)
	ski := register(t, base, skiUnit)
	post("/programs", registerRequest{Unit: evenUnit}, http.StatusOK)
	post("/programs", registerRequest{}, http.StatusBadRequest)
	okemo := register(t, base, skiUnit+"resort(okemo).\n")
	get("/programs", http.StatusOK)

	post("/programs/"+even+"/ask", askRequest{Query: "even(1000000)"}, http.StatusOK)
	post("/programs/"+even+"/ask", askRequest{Query: "even(3)"}, http.StatusOK)
	post("/programs/"+even+"/answers", answersRequest{Query: "even(T)", Limit: 3}, http.StatusOK)
	post("/programs/"+ski+"/answers", answersRequest{Query: "plane(T, hunter)", Limit: 5}, http.StatusOK)
	post("/programs/"+ski+"/ask", askRequest{Query: "exists T plane(T, hunter)"}, http.StatusOK)
	post("/programs/"+okemo+"/ask", askRequest{Query: "plane(0, hunter)"}, http.StatusOK)
	post("/programs/"+ski+"/ask?trace=1&profile=1", askRequest{Query: "plane(2, hunter)"}, http.StatusOK)
	post("/programs/"+ski+"/answers?trace=1", answersRequest{Query: "winter(T)"}, http.StatusOK)

	post("/programs/"+even+"/ask", askRequest{Query: "even("}, http.StatusBadRequest)
	post("/programs/"+even+"/ask", askRequest{Query: "even(T)"}, http.StatusBadRequest)
	post("/programs/"+even+"/answers", answersRequest{Query: "even(T)", Limit: -1}, http.StatusBadRequest)
	post("/programs/doesnotexist/ask", askRequest{Query: "even(4)"}, http.StatusNotFound)
	post("/programs/doesnotexist/answers", answersRequest{Query: "even(T)"}, http.StatusNotFound)
	get("/programs/doesnotexist/period", http.StatusNotFound)

	for i, facts := range []string{"resort(stowe).\nplane(1, stowe).\n", "plane(3, stowe).\n", "resort(vail).\n"} {
		post("/programs/"+ski+"/facts", factsRequest{Facts: facts}, http.StatusOK)
		if i == 0 {
			post("/programs/"+ski+"/facts", factsRequest{Facts: "plane(("}, http.StatusBadRequest)
		}
	}
	post("/programs/"+ski+"/ask", askRequest{Query: "exists T plane(T, stowe)"}, http.StatusOK)
	get("/programs/"+ski+"/period", http.StatusOK)
	get("/programs/"+ski+"/spec", http.StatusOK)
	get("/programs/"+ski+"/wal?from=0", http.StatusOK)
	get("/programs/"+ski+"/wal?from=x", http.StatusBadRequest)

	// Shed verdicts: take the even program's only admission slot.
	sh := s.reg.shardFor(even)
	if !sh.tryAcquire() {
		t.Fatal("could not take the admission slot")
	}
	post("/programs/"+even+"/ask", askRequest{Query: "even(4)"}, http.StatusTooManyRequests)
	post("/programs/"+even+"/answers", answersRequest{Query: "even(T)"}, http.StatusTooManyRequests)
	sh.release()

	get("/debug/flights", http.StatusOK)
	get("/debug/slow", http.StatusOK)
	get("/debug/shards", http.StatusOK)
	get("/debug/graph?id="+ski+"&q=plane(0,hunter)", http.StatusOK)
	get("/debug/graph", http.StatusBadRequest)
}

var (
	// goldenJSONVolatile matches the /metrics values that vary run to run:
	// build identity, uptime, runtime/GC gauges, latency means and bucket
	// counts, snapshot ages.
	goldenJSONVolatile = regexp.MustCompile(`"(go_version|version|revision|uptime_sec|goroutines|heap_alloc_bytes|heap_sys_bytes|gc_cycles|gc_pause_total_us|gc_pause_last_us|mean_us|snapshot_age_sec|buckets)": ("[^"]*"|[-+.0-9eE]+|\{[^}]*\})`)
	// goldenPromVolatile names the /metrics.prom families whose sample
	// values vary run to run; every _bucket and _sum sample does too.
	goldenPromVolatile = map[string]bool{
		"tddserve_build_info":                   true,
		"tddserve_uptime_seconds":               true,
		"tddserve_goroutines":                   true,
		"tddserve_heap_alloc_bytes":             true,
		"tddserve_heap_sys_bytes":               true,
		"tddserve_gc_cycles_total":              true,
		"tddserve_gc_pause_seconds_total":       true,
		"tddserve_gc_pause_last_seconds":        true,
		"tddserve_program_snapshot_age_seconds": true,
	}
)

func normalizeMetricsJSON(body string) string {
	return goldenJSONVolatile.ReplaceAllString(body, `"$1": "?"`)
}

func normalizeMetricsProm(body string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		switch {
		case name == "tddserve_build_info":
			lines[i] = name + "{?} 1"
		case goldenPromVolatile[name], strings.HasSuffix(name, "_bucket"), strings.HasSuffix(name, "_sum"):
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " ?"
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestMetricsGolden -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// TestMetricsGolden pins both metrics views byte for byte (after masking
// the time-varying values) over one fixed traffic script: the JSON
// snapshot at GET /metrics, then the Prometheus exposition at
// GET /metrics.prom, which also counts the /metrics request before it.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, goldenConfig(t.TempDir()))
	goldenTraffic(t, s, ts.URL)

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	checkGolden(t, "metrics.golden.json", normalizeMetricsJSON(string(body)))

	resp, body = getJSON(t, ts.URL+"/metrics.prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.prom: status %d", resp.StatusCode)
	}
	checkGolden(t, "metrics.golden.prom", normalizeMetricsProm(string(body)))
}

// jsonLeaves walks a decoded /metrics body and records every leaf path,
// mapped to whether the leaf is numeric. Map keys under the dynamic
// sections (route names, program ids, histogram buckets) and slice
// indices are written "*", the wildcard the descriptor table uses.
func jsonLeaves(path string, v any, out map[string]bool) {
	join := func(seg string) string {
		if path == "" {
			return seg
		}
		return path + "." + seg
	}
	switch x := v.(type) {
	case map[string]any:
		last := path[strings.LastIndexByte(path, '.')+1:]
		dynamic := last == "routes" || last == "programs" || last == "durability" || last == "buckets"
		for k, c := range x {
			if dynamic {
				k = "*"
			}
			jsonLeaves(join(k), c, out)
		}
	case []any:
		for _, c := range x {
			jsonLeaves(join("*"), c, out)
		}
	case float64:
		out[path] = true
	default:
		if _, seen := out[path]; !seen {
			out[path] = false
		}
	}
}

// TestMetricsViewParity checks that the two metrics views are one model:
// every numeric leaf of the /metrics JSON — on a durable leader after
// the golden traffic and on a follower of it — is mirrored by a family
// of the descriptor table that /metrics.prom actually exposes, and every
// descriptor's JSON path names a real leaf.
func TestMetricsViewParity(t *testing.T) {
	leader, lts := newTestServer(t, goldenConfig(t.TempDir()))
	goldenTraffic(t, leader, lts.URL)
	fol, err := New(Config{Follow: lts.URL, FollowInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fol.Close)
	fts := httptest.NewServer(fol.Handler())
	t.Cleanup(fts.Close)
	for deadline := time.Now().Add(10 * time.Second); fol.metrics.FollowerPolls.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never polled the leader")
		}
	}

	leaves := map[string]bool{}
	for _, base := range []string{lts.URL, fts.URL} {
		_, body := getJSON(t, base+"/metrics")
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		own := map[string]bool{}
		jsonLeaves("", doc, own)
		_, prom := getJSON(t, base+"/metrics.prom")
		for leaf, numeric := range own {
			leaves[leaf] = leaves[leaf] || numeric
			if !numeric {
				continue
			}
			var fam *promDesc
			for i, d := range promFamilies {
				if leaf == d.path || strings.HasPrefix(leaf, d.path+".") {
					fam = &promFamilies[i]
					break
				}
			}
			if fam == nil {
				t.Errorf("%s: /metrics leaf %s has no /metrics.prom family", base, leaf)
			} else if !strings.Contains(string(prom), "# TYPE "+fam.name+" ") {
				t.Errorf("%s: family %s (for %s) missing from /metrics.prom", base, fam.name, leaf)
			}
		}
	}
	if !leaves["follower.polls"] || !leaves["durability.*.wal_bytes"] {
		t.Fatal("traffic did not produce the follower and durability sections")
	}
	for _, d := range promFamilies {
		found := false
		for leaf := range leaves {
			found = found || leaf == d.path || strings.HasPrefix(leaf, d.path+".")
		}
		if !found {
			t.Errorf("family %s mirrors %q, which is no /metrics leaf", d.name, d.path)
		}
	}
}
