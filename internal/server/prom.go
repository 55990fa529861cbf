package server

// Prometheus text exposition (version 0.0.4) of the metrics snapshot.
// Hand-rolled rather than depending on a client library: GET
// /metrics.prom renders the same MetricsSnapshot that GET /metrics
// serves as JSON, through one descriptor table that names each family,
// its type and help, the JSON path it mirrors, and how to read its
// samples off the snapshot. Rows with map-keyed samples emit them sorted
// by key, so the exposition is deterministic (and testable line for
// line).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promSample is one exposition line of a family: a name suffix (_bucket,
// _sum, _count on histograms), the rendered label set, and the value.
type promSample struct{ suffix, labels, value string }

// promDesc is one row of the descriptor table.
type promDesc struct {
	name, typ, help string
	// path is the /metrics JSON leaf, or the object whose leaves, this
	// family mirrors; "*" stands for any map key or slice index.
	path string
	// sparse omits the family, HELP and TYPE included, when it has no
	// samples (the durability families on a server without -data).
	sparse  bool
	samples func(s *MetricsSnapshot) []promSample
}

func itoa(v int64) string         { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string       { return strconv.FormatFloat(v, 'g', -1, 64) }
func usToSeconds(us int64) string { return ftoa(float64(us) / 1e6) }

// promValue is a family with one unlabeled sample.
func promValue(get func(*MetricsSnapshot) string) func(*MetricsSnapshot) []promSample {
	return func(s *MetricsSnapshot) []promSample { return []promSample{{value: get(s)}} }
}

// promInt is promValue for integer counters and gauges.
func promInt(get func(*MetricsSnapshot) int64) func(*MetricsSnapshot) []promSample {
	return promValue(func(s *MetricsSnapshot) string { return itoa(get(s)) })
}

// promFollower reads a replication counter, 0 on a server that is not
// following.
func promFollower(get func(*FollowerSnapshot) int64) func(*MetricsSnapshot) []promSample {
	return promInt(func(s *MetricsSnapshot) int64 {
		if s.Follower == nil {
			return 0
		}
		return get(s.Follower)
	})
}

func perShard(get func(ShardSnapshot) int64) func(*MetricsSnapshot) []promSample {
	return func(s *MetricsSnapshot) []promSample {
		out := make([]promSample, len(s.Shards))
		for i, sh := range s.Shards {
			out[i] = promSample{labels: fmt.Sprintf("shard=\"%d\"", i), value: itoa(get(sh))}
		}
		return out
	}
}

// byKey emits each map entry's samples, labelled label="key", keys
// sorted.
func byKey[V any](m map[string]V, label string, emit func(labels string, v V) []promSample) []promSample {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []promSample
	for _, k := range keys {
		out = append(out, emit(fmt.Sprintf("%s=%q", label, k), m[k])...)
	}
	return out
}

func perRoute(get func(RouteSnapshot) int64) func(*MetricsSnapshot) []promSample {
	return func(s *MetricsSnapshot) []promSample {
		return byKey(s.Routes, "route", func(l string, r RouteSnapshot) []promSample {
			return []promSample{{labels: l, value: itoa(get(r))}}
		})
	}
}

func perProgram(get func(ProgramStats) int64) func(*MetricsSnapshot) []promSample {
	return func(s *MetricsSnapshot) []promSample {
		return byKey(s.Programs, "program", func(l string, p ProgramStats) []promSample {
			return []promSample{{labels: l, value: itoa(get(p))}}
		})
	}
}

func perDurable(get func(DurabilityStats) string) func(*MetricsSnapshot) []promSample {
	return func(s *MetricsSnapshot) []promSample {
		return byKey(s.Durability, "program", func(l string, d DurabilityStats) []promSample {
			return []promSample{{labels: l, value: get(d)}}
		})
	}
}

// promHistogram emits a histogram's cumulative buckets, sum (in seconds), and
// count; labels, when non-empty, prefix the le label.
func promHistogram(labels string, h HistogramSnapshot) []promSample {
	le := "le="
	if labels != "" {
		le = labels + ",le="
	}
	out := make([]promSample, 0, len(h.cumulative)+2)
	for i, n := range h.cumulative {
		bound := "+Inf"
		if i < len(bucketBoundsMicros) {
			bound = usToSeconds(bucketBoundsMicros[i])
		}
		out = append(out, promSample{"_bucket", le + strconv.Quote(bound), itoa(n)})
	}
	return append(out, promSample{"_sum", labels, usToSeconds(h.sumUs)}, promSample{"_count", labels, itoa(h.Count)})
}

// promFamilies is the descriptor table, in exposition order.
var promFamilies = []promDesc{
	{"tddserve_build_info", "gauge", "Build identity (info-style: value is always 1).", "build",
		false, func(s *MetricsSnapshot) []promSample {
			b := s.Build
			return []promSample{{labels: fmt.Sprintf("go_version=%q,version=%q,revision=%q", b.GoVersion, b.Version, b.Revision), value: "1"}}
		}},
	{"tddserve_uptime_seconds", "gauge", "Seconds since the server's metrics were created.", "uptime_sec",
		false, promValue(func(s *MetricsSnapshot) string { return ftoa(s.UptimeSec) })},
	{"tddserve_goroutines", "gauge", "Live goroutines in the serving process.", "runtime.goroutines",
		false, promInt(func(s *MetricsSnapshot) int64 { return int64(s.Runtime.Goroutines) })},
	{"tddserve_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.", "runtime.heap_alloc_bytes",
		false, promInt(func(s *MetricsSnapshot) int64 { return int64(s.Runtime.HeapAlloc) })},
	{"tddserve_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.", "runtime.heap_sys_bytes",
		false, promInt(func(s *MetricsSnapshot) int64 { return int64(s.Runtime.HeapSys) })},
	{"tddserve_gc_cycles_total", "counter", "Completed garbage-collection cycles.", "runtime.gc_cycles",
		false, promInt(func(s *MetricsSnapshot) int64 { return int64(s.Runtime.GCCycles) })},
	{"tddserve_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", "runtime.gc_pause_total_us",
		false, promValue(func(s *MetricsSnapshot) string { return usToSeconds(s.Runtime.GCPauseUs) })},
	{"tddserve_gc_pause_last_seconds", "gauge", "Stop-the-world pause of the most recent GC cycle.", "runtime.gc_pause_last_us",
		false, promValue(func(s *MetricsSnapshot) string { return usToSeconds(s.Runtime.LastGCPauseUs) })},

	{"tddserve_requests_total", "counter", "HTTP requests received, any route.", "requests",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Requests })},
	{"tddserve_errors_total", "counter", "Responses with status >= 400.", "errors",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Errors })},
	{"tddserve_in_flight_requests", "gauge", "Requests currently executing.", "in_flight",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.InFlight })},
	{"tddserve_timeouts_total", "counter", "Requests that hit the per-request deadline.", "timeouts",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Timeouts })},
	{"tddserve_spec_cache_hits_total", "counter", "Spec-cache lookups answered warm.", "cache_hits",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.CacheHits })},
	{"tddserve_spec_cache_misses_total", "counter", "Spec-cache lookups that had to (re)compile.", "cache_misses",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.CacheMisses })},
	{"tddserve_spec_cache_evictions_total", "counter", "Warm entries displaced by the LRU policy.", "cache_evictions",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.CacheEvict })},
	{"tddserve_bt_fallbacks_total", "counter", "Queries the spec path failed and the BT engine answered.", "bt_fallbacks",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Fallbacks })},
	{"tddserve_asserts_total", "counter", "Successful fact-ingestion batches.", "asserts",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Asserts })},
	{"tddserve_facts_ingested_total", "counter", "Facts new to a database across all ingestions.", "facts_ingested",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Ingested })},
	{"tddserve_wal_appends_total", "counter", "Fact batches appended to program write-ahead logs.", "wal_appends",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.WalAppends })},
	{"tddserve_wal_fsyncs_total", "counter", "Fsync calls across all program logs.", "wal_fsyncs",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.WalFsyncs })},
	{"tddserve_wal_snapshots_total", "counter", "Snapshot + log-truncation cycles completed.", "wal_snapshots",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Snapshots })},
	{"tddserve_wal_snapshot_errors_total", "counter", "Snapshot attempts that failed (the batch stayed logged).", "wal_snapshot_errors",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.SnapErrors })},
	{"tddserve_follower_polls_total", "counter", "Leader poll cycles completed by a follower.", "follower.polls",
		false, promFollower(func(f *FollowerSnapshot) int64 { return f.Polls })},
	{"tddserve_follower_records_applied_total", "counter", "Leader WAL records applied by a follower.", "follower.records_applied",
		false, promFollower(func(f *FollowerSnapshot) int64 { return f.Records })},
	{"tddserve_follower_errors_total", "counter", "Follower poll or apply failures, including divergence.", "follower.errors",
		false, promFollower(func(f *FollowerSnapshot) int64 { return f.Errors })},
	{"tddserve_follower_lag_records", "gauge", "Leader batches not yet applied, summed over programs.", "follower.lag_records",
		false, promFollower(func(f *FollowerSnapshot) int64 { return f.Lag })},
	{"tddserve_shed_total", "counter", "Requests rejected by admission control instead of queued.", "shed_requests",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Shed })},
	{"tddserve_coalesced_requests_total", "counter", "Asks that joined an identical in-flight evaluation.", "coalesced_requests",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.Coalesced })},
	{"tddserve_flight_leaders_total", "counter", "Coalescable evaluations actually run (flight leaders).", "flight_leaders",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.FlightLeaders })},
	{"tddserve_queue_depth", "gauge", "Admitted tasks waiting for a worker in the shared pool queue.", "queue_depth",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.QueueDepth })},
	{"tddserve_queue_capacity", "gauge", "Bound of the shared worker-pool queue.", "queue_capacity",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.QueueCapacity })},

	{"tddserve_shard_inflight", "gauge", "Requests currently admitted through a shard's gate.", "shards.*.in_flight",
		false, perShard(func(s ShardSnapshot) int64 { return s.InFlight })},
	{"tddserve_shard_capacity", "gauge", "In-flight bound of a shard's admission gate.", "shards.*.capacity",
		false, perShard(func(s ShardSnapshot) int64 { return s.Capacity })},
	{"tddserve_shard_sheds_total", "counter", "Requests rejected at a shard's admission gate.", "shards.*.sheds",
		false, perShard(func(s ShardSnapshot) int64 { return s.Sheds })},
	{"tddserve_shard_programs", "gauge", "Programs registered in a shard.", "shards.*.programs",
		false, perShard(func(s ShardSnapshot) int64 { return int64(s.Programs) })},
	{"tddserve_shard_warm", "gauge", "Warm (cached) specifications in a shard.", "shards.*.warm",
		false, perShard(func(s ShardSnapshot) int64 { return int64(s.Warm) })},
	{"tddserve_fsync_duration_seconds", "histogram", "WAL fsync latency across all program logs.", "wal_fsync_latency",
		false, func(s *MetricsSnapshot) []promSample { return promHistogram("", s.FsyncLatency) }},

	{"tddserve_route_requests_total", "counter", "Requests per route.", "routes.*.requests",
		false, perRoute(func(r RouteSnapshot) int64 { return r.Requests })},
	{"tddserve_route_errors_total", "counter", "Error responses per route.", "routes.*.errors",
		false, perRoute(func(r RouteSnapshot) int64 { return r.Errors })},
	{"tddserve_route_sheds_total", "counter", "Requests rejected by admission control per route.", "routes.*.sheds",
		false, perRoute(func(r RouteSnapshot) int64 { return r.Sheds })},
	{"tddserve_route_timeouts_total", "counter", "Requests that hit the per-request deadline per route.", "routes.*.timeouts",
		false, perRoute(func(r RouteSnapshot) int64 { return r.Timeouts })},
	{"tddserve_request_duration_seconds", "histogram", "Request latency per route.", "routes.*.latency",
		false, func(s *MetricsSnapshot) []promSample {
			return byKey(s.Routes, "route", func(l string, r RouteSnapshot) []promSample { return promHistogram(l, r.Latency) })
		}},

	{"tddserve_lint_warnings", "gauge", "Lint findings at warning severity or above across warm programs.", "lint_warnings",
		false, promInt(func(s *MetricsSnapshot) int64 { return s.LintWarnings })},
	{"tddserve_program_derived_facts", "gauge", "Facts derived beyond the database for a warm program.", "programs.*.derived",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Derived) })},
	{"tddserve_program_rule_firings", "gauge", "Rule firings for a warm program.", "programs.*.firings",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Firings) })},
	{"tddserve_program_sweeps", "gauge", "Full window sweeps for a warm program.", "programs.*.sweeps",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Sweeps) })},
	{"tddserve_program_representatives", "gauge", "Representative terms |T| of a warm program's specification.", "programs.*.representatives",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Representatives) })},
	{"tddserve_program_spec_facts", "gauge", "Primary-database facts |B| of a warm program's specification.", "programs.*.facts",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Facts) })},
	{"tddserve_program_lint_warnings", "gauge", "Lint findings at warning severity or above for a warm program.", "programs.*.lint_warnings",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.LintWarnings) })},
	{"tddserve_program_period_base", "gauge", "Base b of a warm program's certified period.", "programs.*.period.base",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Period.Base) })},
	{"tddserve_program_period_p", "gauge", "Length p of a warm program's certified period.", "programs.*.period.p",
		false, perProgram(func(p ProgramStats) int64 { return int64(p.Period.P) })},

	{"tddserve_program_wal_seq", "gauge", "Batches ingested into a program since registration.", "durability.*.seq",
		true, perDurable(func(d DurabilityStats) string { return itoa(int64(d.Seq)) })},
	{"tddserve_program_durable_seq", "gauge", "Highest batch sequence known fsynced for a program.", "durability.*.durable_seq",
		true, perDurable(func(d DurabilityStats) string { return itoa(int64(d.DurableSeq)) })},
	{"tddserve_program_snapshot_seq", "gauge", "Batch sequence covered by the program's latest snapshot.", "durability.*.snapshot_seq",
		true, perDurable(func(d DurabilityStats) string { return itoa(int64(d.SnapshotSeq)) })},
	{"tddserve_program_wal_bytes", "gauge", "Live WAL segment size in bytes for a program.", "durability.*.wal_bytes",
		true, perDurable(func(d DurabilityStats) string { return itoa(d.WalBytes) })},
	{"tddserve_program_snapshot_age_seconds", "gauge", "Seconds since the program's latest snapshot (0 before any snapshot).", "durability.*.snapshot_age_sec",
		true, perDurable(func(d DurabilityStats) string { return ftoa(d.SnapshotAgeSec) })},
	// The durable rev is a string, so it is exposed info-style: a
	// constant-1 gauge with the rev as a label, the idiom Prometheus uses
	// for build and version identifiers.
	{"tddserve_program_durable_rev", "gauge", "Last durable revision per program (info-style: value is always 1).", "durability.*.durable_rev",
		true, func(s *MetricsSnapshot) []promSample {
			return byKey(s.Durability, "program", func(l string, d DurabilityStats) []promSample {
				return []promSample{{labels: fmt.Sprintf("%s,rev=%q", l, d.DurableRev), value: "1"}}
			})
		}},
}

// writePrometheus renders the snapshot through the descriptor table.
func writePrometheus(w io.Writer, s *MetricsSnapshot) {
	for _, d := range promFamilies {
		samples := d.samples(s)
		if d.sparse && len(samples) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.typ)
		for _, p := range samples {
			if p.labels == "" {
				fmt.Fprintf(w, "%s%s %s\n", d.name, p.suffix, p.value)
			} else {
				fmt.Fprintf(w, "%s%s{%s} %s\n", d.name, p.suffix, p.labels, p.value)
			}
		}
	}
}
