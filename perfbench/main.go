// Command perfbench is the repository benchmark. It starts the tddserve
// binary it is given as a child process, drives one workload against it
// with two closed-loop clients, checks every response against an
// in-process oracle, and prints each metric by name and unit, ending with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays every operation through the library layers and the
// metrics are the per-layer ones. Run it through run.sh, which builds
// both binaries from the checkout; see README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tdd/internal/server"
)

// setupRepeats is how many times a -trace 0 run starts a server and
// registers and warms its programs; setup_s is the median.
const setupRepeats = 5

// runLimit bounds a whole run; past it the benchmark gives up.
const runLimit = 170 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	serverBin string
	out       string
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

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: warm_read, compile or ingest_read")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced replay run reporting per-layer metrics")
	flag.StringVar(&o.serverBin, "server", "", "tddserve binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for scratch data, reports and span files")
	flag.Parse()
	if o.serverBin == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3) // the server dies with us (Pdeathsig)
	})
	res, err := run(o)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report collects every printed metric; the JSON line carries the
// subset BENCHMARK.json declares for the run's mode.
type report struct {
	Provenance map[string]any     `json:"provenance"`
	Metrics    map[string]metric  `json:"metrics"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Shares     map[string]float64 `json:"layer_shares,omitempty"`
	SelfUs     map[string]float64 `json:"self_us,omitempty"`
	Flags      []string           `json:"flags,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func run(o options) (*result, error) {
	if err := selfTest(); err != nil {
		return nil, err
	}
	b, err := newBench(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rep := &report{Provenance: b.describe(), Metrics: map[string]metric{}, Samples: map[string]int{}}
	var res *result
	if o.trace == 1 {
		res, err = tracedRun(o, b, scratch, rep)
	} else {
		res, err = timedRun(o, b, scratch, rep)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range names {
		m := rep.Metrics[n]
		if s, ok := rep.Samples[n]; ok {
			fmt.Printf("metric %-32s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, s)
		} else {
			fmt.Printf("metric %-32s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, f := range rep.Flags {
		fmt.Println("FLAG", f)
	}
	for _, e := range rep.Errors {
		fmt.Println("ERROR", e)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func (b *bench) serverFlags(scratch string, i int) ([]string, string) {
	if !b.durable {
		return b.flags, ""
	}
	dir := filepath.Join(scratch, fmt.Sprintf("data%d", i))
	return append(append([]string(nil), b.flags...), "-data", dir), dir
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(o options, b *bench, scratch string, rep *report) (*result, error) {
	var (
		srv    *child
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var r *runner
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		flags, _ := b.serverFlags(scratch, i)
		start := time.Now()
		var err error
		if srv, err = startServer(o.serverBin, flags, filepath.Join(scratch, "server.log")); err != nil {
			return nil, err
		}
		r = &runner{srv: srv}
		if err := b.setupOps(r, &tally{}, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p0, err := srv.proc()
	if err != nil {
		return nil, err
	}
	h0 := hostCPU()
	start := time.Now()
	t := phase(b.clients(r, time.Duration(o.seconds)*time.Second, 0, len(b.batches), 1), false, nil, "timed")
	wall := time.Since(start).Seconds()
	ps, err := srv.proc()
	if err != nil {
		return nil, err
	}
	h1 := hostCPU()
	head, at := b.headline(t)
	if len(head) == 0 {
		return nil, fmt.Errorf("timed phase completed no %s requests", b.name)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("ok_per_s", windowedRate(t.okAt, wall), "1/s")
	rep.set("op_p50_ms", windowedQuantile(head, at, wall, 0.5)/1e3, "ms")
	rep.set("op_p99_ms", windowedQuantile(head, at, wall, 0.99)/1e3, "ms")
	rep.Samples["op_p50_ms"], rep.Samples["op_p99_ms"] = len(head), len(head)
	rep.set("server_max_rss_mb", float64(ps.hwmKiB)/1024, "MB")
	rep.set("server_cpu_us_per_op", float64((ps.cpu-p0.cpu).Microseconds())/float64(max(t.okTotal(), 1)), "us")
	rep.set("host.steal_frac", h1.stealSince(h0), "fraction")
	rep.set("error_frac", float64(t.failed)/float64(max(t.attempted, 1)), "fraction")
	detail := []struct {
		name  string
		kind  opKind
		scale float64
		unit  string
	}{
		{"ask_ground", kGround, 1, "us"}, {"ask_fo", kFO, 1, "us"}, {"answers", kAnswers, 1, "us"},
		{"register", kRegister, 1e3, "ms"}, {"ingest", kIngest, 1e3, "ms"},
	}
	for _, d := range detail {
		lat := t.lat[d.kind]
		if len(lat) == 0 {
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			n := fmt.Sprintf("%s_%s_%s", d.name, q.suffix, d.unit)
			rep.set(n, quantile(lat, q.q)/d.scale, d.unit)
			rep.Samples[n] = len(lat)
		}
	}
	rep.Errors = t.errs
	res := &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, n := range endToEnd {
		res.Metrics[n] = rep.Metrics[n]
	}
	return res, nil
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares.
var endToEnd = []string{"setup_s", "op_p50_ms", "server_cpu_us_per_op", "server_max_rss_mb"}

var perLayer = []string{
	"server.handler_ask_us", "server.handler_answers_us", "server.handler_register_ms",
	"server.transport_ask_us", "server.residual_ask_us",
	"registry.lookup_us", "registry.register_ms",
	"parser.parse_query_us", "parser.parse_program_ms",
	"core.new_ms", "core.certify_ms", "classify.analyze_ms",
	"spec.export_ms", "spec.import_ms", "lint.run_ms",
	"query.eval_ground_us", "query.eval_fo_us", "query.answers_us",
	"engine.derived", "engine.firings", "engine.yield", "core.window", "spec.reps", "spec.json_bytes",
	"proc.cpu_us_per_op", "go.gc_cycles_per_kop", "go.gc_pause_ms", "load.cpu_share", "trace.overhead_frac",
}

// tracedRun measures the per-layer metrics: one traced setup, an
// untraced timed half (server counters, process CPU), then a traced
// timed half that replays every operation through the library layers.
func tracedRun(o options, b *bench, scratch string, rep *report) (*result, error) {
	rec := &recorder{t0: time.Now()}
	rp, err := newReplayer(b, scratch)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	flags, dataDir := b.serverFlags(scratch, 0)
	srv, err := startServer(o.serverBin, flags, filepath.Join(scratch, "server.log"))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	r := &runner{srv: srv, replay: rp}

	setup := &tally{}
	tr := rec.tracer("setup")
	err = b.setupOps(r, setup, tr)
	rec.add(tr)
	if err != nil {
		return nil, err
	}

	half := time.Duration(o.seconds) * time.Second / 2
	split := len(b.batches) / 2
	mS, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	pS, err := srv.proc()
	if err != nil {
		return nil, err
	}
	gS, start := selfCPU(), time.Now()
	plain := phase(b.clients(r, half, 0, split, 1), false, nil, "timed")
	plainWall := time.Since(start).Seconds()
	gU := selfCPU()
	pU, err := srv.proc()
	if err != nil {
		return nil, err
	}
	mU, err := srv.metrics()
	if err != nil {
		return nil, err
	}

	if b.durable {
		if err := rp.catchUp(b, split); err != nil {
			return nil, err
		}
		for _, p := range b.setup {
			if err := rp.fetchSpec(srv, p.id); err != nil {
				return nil, err
			}
		}
	}
	start = time.Now()
	traced := phase(b.clients(r, half, split, len(b.batches), 2), true, rec, "timed")
	tracedWall := time.Since(start).Seconds()
	mE, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	srv.stop()
	stopped = true

	okPlain := plain.okTotal()
	if okPlain == 0 || traced.okTotal() == 0 {
		return nil, fmt.Errorf("a timed half completed no requests: %v %v", plain.errs, traced.errs)
	}
	// Server-side route latency over the untraced timed half, or over
	// set-up for a route the timed phase does not use.
	route := func(name string) (meanUs float64, window string) {
		a := mS.Routes[name].Latency
		if m, n := deltaMean(a, mU.Routes[name].Latency); n > 0 {
			return m, "timed"
		}
		return a.MeanUs, "setup"
	}
	askUs, win := route("ask")
	rep.set("server.handler_ask_us", askUs, "us")
	ans, _ := route("answers")
	rep.set("server.handler_answers_us", ans, "us")
	regUs, _ := route("register")
	rep.set("server.handler_register_ms", regUs/1e3, "ms")
	client := plain
	if win == "setup" {
		client = setup
	}
	clientAsk := mean(append(append([]float64(nil), client.lat[kGround]...), client.lat[kFO]...))
	rep.set("server.transport_ask_us", clientAsk-askUs, "us")

	rep.set("proc.cpu_us_per_op", float64((pU.cpu-pS.cpu).Microseconds())/float64(okPlain), "us")
	rep.set("load.cpu_share", (gU-gS).Seconds()/(plainWall*float64(runtime.NumCPU())), "fraction")
	rep.set("go.gc_cycles_per_kop", float64(mU.Runtime.GCCycles-mS.Runtime.GCCycles)/(float64(okPlain)/1e3), "1/kop")
	rep.set("go.gc_pause_ms", float64(mU.Runtime.GCPauseUs-mS.Runtime.GCPauseUs)/1e3, "ms")
	rep.set("trace.overhead_frac", 1-(float64(traced.okTotal())/tracedWall)/(float64(okPlain)/plainWall), "fraction")

	hits, misses := mU.CacheHits-mS.CacheHits, mU.CacheMisses-mS.CacheMisses
	if hits+misses > 0 {
		rep.set("server.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	rep.set("server.cache_evictions", float64(mU.CacheEvict-mS.CacheEvict), "count")
	rep.set("server.coalesced", float64(mE.Coalesced), "count")
	rep.set("server.shed", float64(mE.Shed), "count")
	rep.set("server.bt_fallbacks", float64(mE.Fallbacks), "count")

	layerMetrics(rec, rep)

	exact := map[string]float64{}
	var sum counts
	for _, c := range rp.setup {
		sum.Derived += c.Derived
		sum.Firings += c.Firings
		sum.Window += c.Window
		sum.Reps += c.Reps
		sum.JSONBytes += c.JSONBytes
	}
	exact["engine.derived"] = float64(sum.Derived)
	exact["engine.firings"] = float64(sum.Firings)
	exact["core.window"] = float64(sum.Window)
	exact["spec.reps"] = float64(sum.Reps)
	exact["spec.json_bytes"] = float64(sum.JSONBytes)
	if b.durable {
		facts, _ := route("facts")
		rep.set("server.handler_facts_ms", facts/1e3, "ms")
		if m, n := deltaMean(mS.FsyncLatency, mU.FsyncLatency); n > 0 {
			rep.set("wal.fsync_mean_us", m, "us")
		}
		appends := mU.WalAppends - mS.WalAppends
		rep.set("wal.fsyncs_per_batch", float64(mU.WalFsyncs-mS.WalFsyncs)/float64(max(appends, 1)), "count")
		rep.set("wal.snapshots", float64(mU.Snapshots-mS.Snapshots), "count")
		var sent int
		for j := range b.batches {
			for _, p := range b.setup {
				sent += len(rename(b.batches[j], p.tag))
			}
		}
		disk, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		exact["wal.disk_bytes_per_user_byte"] = float64(disk) / float64(sent)
		exact["inc.derived_per_batch"] = float64(rp.incDerived) / float64(max(rp.batches, 1))
		exact["inc.recertified_frac"] = float64(rp.recertified) / float64(max(rp.batches, 1))
	}
	for n, v := range exact {
		unit := "count"
		switch n {
		case "spec.json_bytes":
			unit = "bytes"
		case "inc.recertified_frac", "wal.disk_bytes_per_user_byte":
			unit = "ratio"
		}
		rep.set(n, v, unit)
	}
	if sum.Firings > 0 {
		rep.set("engine.yield", float64(sum.Derived)/float64(sum.Firings), "ratio")
	}
	rep.Flags = append(rep.Flags, rp.flags...)
	rep.Flags = append(rep.Flags, checkRepeat(o, exact)...)
	if err := rec.writeSpans(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))); err != nil {
		return nil, err
	}

	all := &tally{}
	all.merge(setup)
	all.merge(plain)
	all.merge(traced)
	rep.Errors = all.errs
	res := &result{Correct: all.wrong == 0 && len(rep.Flags) == 0, Attempted: plain.attempted + traced.attempted,
		Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}
	for _, n := range perLayer {
		m, ok := rep.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", n)
		}
		res.Metrics[n] = m
	}
	return res, nil
}

// layerMetrics derives the replay-layer metrics, per-op layer shares
// (replay span ÷ http span) and mean self times from the spans.
func layerMetrics(rec *recorder, rep *report) {
	children := map[int64][]span{}
	var roots []span
	for _, s := range rec.spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	dur := func(s span) float64 { return float64(s.End-s.Start) / 1e3 }
	byKind := map[string]map[string][]float64{} // op kind -> span name -> µs
	self := map[string][]float64{}
	for _, root := range roots {
		kind := strings.TrimPrefix(root.Name, "op.")
		if byKind[kind] == nil {
			byKind[kind] = map[string][]float64{}
		}
		covered := 0.0
		layers := map[string]float64{}
		for _, c := range children[root.Op] {
			d := dur(c)
			covered += d
			name := strings.TrimPrefix(c.Name, "replay.")
			layers[name] = d
			byKind[kind][name] = append(byKind[kind][name], d)
			self[c.Name] = append(self[c.Name], d)
		}
		self[root.Name] = append(self[root.Name], dur(root)-covered)
		if kind == "ask_ground" {
			byKind[kind]["residual"] = append(byKind[kind]["residual"],
				layers["http"]-layers["registry.lookup"]-layers["parser.parse_query"]-layers["query.eval"])
		}
	}
	rep.Shares = map[string]float64{}
	for kind, layers := range byKind {
		h := mean(layers["http"])
		for name, ds := range layers {
			if name != "http" && name != "residual" && h > 0 {
				rep.Shares[kind+"/"+name] = mean(ds) / h
			}
		}
	}
	rep.SelfUs = map[string]float64{}
	for name, ds := range self {
		rep.SelfUs[name] = mean(ds)
	}
	set := func(name, kind, layer string, scale float64, unit string) {
		ds := byKind[kind][layer]
		if len(ds) > 0 {
			rep.set(name, mean(ds)/scale, unit)
			rep.Samples[name] = len(ds)
		}
	}
	reads := map[string][]float64{}
	for _, kind := range []string{"ask_ground", "ask_fo", "answers"} {
		for _, layer := range []string{"registry.lookup", "parser.parse_query"} {
			reads[layer] = append(reads[layer], byKind[kind][layer]...)
		}
	}
	byKind["reads"] = reads
	set("server.residual_ask_us", "ask_ground", "residual", 1, "us")
	set("registry.lookup_us", "reads", "registry.lookup", 1, "us")
	set("parser.parse_query_us", "reads", "parser.parse_query", 1, "us")
	set("query.eval_ground_us", "ask_ground", "query.eval", 1, "us")
	set("query.eval_fo_us", "ask_fo", "query.eval", 1, "us")
	set("query.answers_us", "answers", "query.answers", 1, "us")
	for _, l := range []string{"registry.register", "parser.parse_program", "core.new", "core.certify",
		"classify.analyze", "spec.export", "spec.import", "lint.run"} {
		set(l+"_ms", "register", l, 1e3, "ms")
	}
	set("registry.ingest_ms", "ingest", "registry.ingest", 1e3, "ms")
	set("inc.assert_ms", "ingest", "inc.assert", 1e3, "ms")
	set("spec.export_ms.ingest", "ingest", "spec.export", 1e3, "ms")
	set("spec.import_ms.ingest", "ingest", "spec.import", 1e3, "ms")
	set("lint.run_ms.ingest", "ingest", "lint.run", 1e3, "ms")
	set("wal.append_us", "ingest", "wal.append", 1, "us")
}

// deltaMean is the mean of the observations a histogram gained between
// two snapshots, and their number.
func deltaMean(a, z server.HistogramSnapshot) (mean float64, n int64) {
	if n = z.Count - a.Count; n <= 0 {
		return 0, 0
	}
	return (z.MeanUs*float64(z.Count) - a.MeanUs*float64(a.Count)) / float64(n), n
}

// checkRepeat compares this run's exact counts with those stored by an
// earlier traced run of the same seed against the same server binary,
// and stores them for the next one. Any difference is flagged.
func checkRepeat(o options, exact map[string]float64) []string {
	sum, err := fileSHA(o.serverBin)
	if err != nil {
		return []string{"cannot hash server binary: " + err.Error()}
	}
	type stored struct {
		Server string             `json:"server_sha256"`
		Counts map[string]float64 `json:"counts"`
	}
	path := filepath.Join(o.out, fmt.Sprintf("counts-%s-seed%d.json", o.workload, o.seed))
	var flags []string
	if data, err := os.ReadFile(path); err == nil {
		var prev stored
		if json.Unmarshal(data, &prev) == nil && prev.Server == sum {
			for n, v := range exact {
				if pv, ok := prev.Counts[n]; ok && pv != v {
					flags = append(flags, fmt.Sprintf("count %s = %v, an earlier run of seed %d measured %v", n, v, o.seed, pv))
				}
			}
		}
	}
	data, _ := json.Marshal(stored{Server: sum, Counts: exact})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		flags = append(flags, "cannot store counts: "+err.Error())
	}
	return flags
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
