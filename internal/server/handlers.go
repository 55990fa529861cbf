package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tdd"
	"tdd/internal/obs"
	"tdd/internal/wal"
)

// Wire types. Every response body is JSON; errors are {"error": "..."}
// with a matching status code.

type registerRequest struct {
	// Unit is a mixed rules+facts source (facts are the ground unit
	// clauses); alternatively Rules and Facts are separate sources.
	Unit  string `json:"unit,omitempty"`
	Rules string `json:"rules,omitempty"`
	Facts string `json:"facts,omitempty"`
}

// programState is the tail register and facts responses share: the
// program's certified period, specification size, and lint findings.
// After an ingest the program is re-linted against the extended
// database — the batch may have filled a predicate flagged undefined.
type programState struct {
	Period          PeriodInfo `json:"period"`
	Representatives int        `json:"representatives"`
	Facts           int        `json:"facts"`
	// LintWarnings counts lint findings at warning severity or above,
	// always present so clients notice defects without opting in.
	LintWarnings int `json:"lint_warnings"`
	// Lint is the full Tier-A diagnostic list, present when the request
	// carried ?lint=1.
	Lint *tdd.LintResult `json:"lint,omitempty"`
}

// state reports the entry's programState for a response to r.
func (e *entry) state(r *http.Request) programState {
	st := programState{
		Period:          e.periodInfo(),
		Representatives: e.reps,
		Facts:           e.facts,
		LintWarnings:    e.lint.Warnings(),
	}
	if wanted(r, "lint") {
		st.Lint = &e.lint
	}
	return st
}

type registerResponse struct {
	ID       string `json:"id"`
	Rev      string `json:"rev"`
	Existing bool   `json:"existing"`
	programState
}

type factsRequest struct {
	// Facts is a fact source in the same syntax as registration fact
	// sources, including interval facts.
	Facts string `json:"facts"`
}

type factsResponse struct {
	ID string `json:"id"`
	// Rev is the program's new content revision; it advances with every
	// ingested batch while the id stays the stable handle.
	Rev           string `json:"rev"`
	NewFacts      int    `json:"new_facts"`
	Duplicates    int    `json:"duplicates"`
	Derived       int    `json:"derived"`
	Recertified   bool   `json:"recertified"`
	PeriodChanged bool   `json:"period_changed"`
	programState
	ElapsedUs int64 `json:"elapsed_us"`
}

type askRequest struct {
	Query string `json:"query"`
}

// queryMeta is the tail ask and answers responses share.
type queryMeta struct {
	// Engine names the path that answered: "spec" (cache fast path),
	// "bt" (fallback), or "sliced" (relevance slice).
	Engine    string `json:"engine"`
	ElapsedUs int64  `json:"elapsed_us"`
	// Coalesced marks a response served by joining an identical in-flight
	// evaluation rather than running its own.
	Coalesced bool   `json:"coalesced,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Trace is the merged phase tree (compile pipeline + this request),
	// present when the request carried ?trace=1.
	Trace *traceJSON `json:"trace,omitempty"`
	// Profile is the program's EXPLAIN ANALYZE join-cost profile —
	// per-rule, per-body-literal scan/match counters with attributed wall
	// time, bucketed by timestamp stratum — present when the request
	// carried ?profile=1. It covers the program's lifetime evaluation
	// (compile-time certification plus every ingest), not just this
	// request: a warm query answers from the spec cache and does no join
	// work of its own.
	Profile *tdd.ProfileReport `json:"profile,omitempty"`
}

type askResponse struct {
	Result bool `json:"result"`
	queryMeta
}

// traceJSON is the ?trace=1 response block: the merged phase tree plus
// the warm program's per-rule firing table.
type traceJSON struct {
	obs.TraceJSON
	Rules []tdd.RuleStat `json:"rules,omitempty"`
}

// mergedTrace folds the program's lifetime trace (compile + ingests) into
// the request's own trace as a synthetic leading "compile" phase, so a
// warm query's tree still shows where the preprocessing time went. The
// compile phase's duration is the sum of its children (the lifetime
// trace's wall clock includes arbitrary idle time between requests, so it
// would dwarf the work it contains); the merged total is that sum plus
// the request's wall time, keeping phase durations and the total
// consistent.
func mergedTrace(compile *obs.TraceJSON, req *obs.TraceJSON, rules []tdd.RuleStat) *traceJSON {
	if req == nil {
		return nil
	}
	out := &traceJSON{TraceJSON: *req, Rules: rules}
	if compile != nil {
		var us int64
		for _, p := range compile.Phases {
			us += p.Us
		}
		cp := obs.SpanJSON{Name: "compile", Us: us, Children: compile.Phases}
		out.Phases = append([]obs.SpanJSON{cp}, req.Phases...)
		out.TotalUs = us + req.TotalUs
		out.Dropped += compile.Dropped
	}
	return out
}

type answersRequest struct {
	Query string `json:"query"`
	Limit int    `json:"limit,omitempty"` // 0 = unlimited
}

type answerJSON struct {
	Temporal    map[string]int    `json:"temporal,omitempty"`
	NonTemporal map[string]string `json:"non_temporal,omitempty"`
}

type answersResponse struct {
	Answers []answerJSON `json:"answers"`
	Count   int          `json:"count"`
	// Rewrite is the specification's rewrite rule; each temporal binding
	// t stands for the infinite family reachable by running the rule
	// backwards (t, t+p, t+2p, ... once t >= base).
	Rewrite string `json:"rewrite"`
	queryMeta
}

type listResponse struct {
	Programs []string `json:"programs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; programs and queries are text, a
// megabyte is already generous.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // best effort; client may be gone
}

// fail maps an error to a JSON error response and books it against the
// route's counters. Shed verdicts are the explicit-backpressure surface:
// a saturated shard is 429 (this program family is hot — back off), a
// full worker queue 503 (the whole server is hot — retry elsewhere),
// both with Retry-After so well-behaved clients and load balancers pace
// themselves. Timeouts become 503; unknown programs 404; everything
// else is a client error 400.
func (s *Server) fail(w http.ResponseWriter, rm *routeMetrics, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrShardSaturated), errors.Is(err, ErrQueueFull):
		status = http.StatusServiceUnavailable
		if errors.Is(err, ErrShardSaturated) {
			status = http.StatusTooManyRequests
		}
		w.Header().Set("Retry-After", "1")
		rm.Sheds.Add(1)
		err = fmt.Errorf("overloaded, retry later: %w", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
		rm.Timeouts.Add(1)
		err = fmt.Errorf("request timed out or was canceled: %w", err)
	case errors.Is(err, ErrPoolClosed), errors.Is(err, wal.ErrClosed):
		// A WAL closed mid-request means shutdown won the race: the batch
		// was rejected, not torn — retry against a live server.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// requestContext bounds r's context by the per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// run is the one dispatch path of every program-scoped route. It admits
// work through program id's shard gate and the worker pool — both
// fast-fail, so a saturated shard or a full queue rejects in
// microseconds instead of holding the connection until its deadline —
// runs it under the per-request deadline, and writes any failure (the
// admission verdict, the deadline, or work's own error) through fail.
// It returns that failure, nil when work succeeded; on a non-nil return
// the response is written and work may still be running on an abandoned
// worker, so the caller must not read what it writes.
func (s *Server) run(w http.ResponseWriter, r *http.Request, rm *routeMetrics, id string, work func() error) error {
	var werr error
	err := ErrShardSaturated
	if sh := s.reg.shardFor(id); sh.tryAcquire() {
		ctx, cancel := s.requestContext(r)
		err = s.pool.TryDo(ctx, func() { werr = work() })
		cancel()
		sh.release()
	}
	if err == nil {
		err = werr
	}
	if err != nil {
		s.fail(w, rm, err)
	}
	return err
}

// rejectReadOnly rejects a mutating request on a follower: the replica's
// state is defined entirely by the leader's WAL feed, so local writes
// would fork it. Enforced at the handler level — the registry itself
// stays writable for the replication loop.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly {
		return false
	}
	writeJSON(w, http.StatusForbidden,
		errorResponse{Error: "read-only follower of " + s.cfg.Follow + ": send writes to the leader"})
	return true
}

// POST /programs
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
	if s.rejectReadOnly(w) {
		return
	}
	var req registerRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, rm, err)
		return
	}
	if req.Unit == "" && req.Rules == "" {
		s.fail(w, rm, errors.New(`need "unit" or "rules" (+ optional "facts")`))
		return
	}
	if req.Unit != "" && (req.Rules != "" || req.Facts != "") {
		s.fail(w, rm, errors.New(`"unit" excludes "rules"/"facts"`))
		return
	}
	var (
		ent      *entry
		existing bool
	)
	// The content hash is the registry handle AND the shard key, so the
	// admission gate can be consulted before any compile work happens.
	id := wal.HashSource(req.Unit, req.Rules, req.Facts)
	if s.run(w, r, rm, id, func() (err error) {
		ent, existing, err = s.reg.Register(req.Unit, req.Rules, req.Facts)
		return err
	}) != nil {
		return
	}
	status := http.StatusCreated
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, registerResponse{ID: ent.src.id, Rev: ent.src.rev, Existing: existing, programState: ent.state(r)})
}

// GET /programs
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request, _ *routeMetrics) {
	writeJSON(w, http.StatusOK, listResponse{Programs: s.reg.IDs()})
}

// POST /programs/{id}/facts — incremental fact ingestion. The batch is
// asserted into a fork of the program's database, propagated semi-naively
// through the evaluated model, re-certified, and published atomically;
// concurrent queries see the program either entirely before or entirely
// after the batch. Writers on one program are serialized.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
	if s.rejectReadOnly(w) {
		return
	}
	var req factsRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, rm, err)
		return
	}
	if req.Facts == "" {
		s.fail(w, rm, errors.New(`need "facts"`))
		return
	}
	var (
		ent *entry
		res tdd.AssertResult
	)
	id := r.PathValue("id")
	start := time.Now()
	if s.run(w, r, rm, id, func() (err error) {
		ent, res, err = s.reg.Ingest(id, req.Facts)
		return err
	}) != nil {
		return
	}
	writeJSON(w, http.StatusOK, factsResponse{
		ID:            ent.src.id,
		Rev:           ent.src.rev,
		NewFacts:      res.NewFacts,
		Duplicates:    res.Duplicates,
		Derived:       res.Derived,
		Recertified:   res.Recertified,
		PeriodChanged: res.PeriodChanged,
		programState:  ent.state(r),
		ElapsedUs:     time.Since(start).Microseconds(),
	})
}

// wanted reports whether the request opted into an optional response
// block via ?param=1: trace (inline phase tree), lint (full diagnostic
// list; the warning count is always present), or profile (the EXPLAIN
// ANALYZE join-cost profile).
func wanted(r *http.Request, param string) bool {
	v := r.URL.Query().Get(param)
	return v == "1" || v == "true"
}

// maybeLogSlow dumps the full phase tree of a request that crossed the
// configured slow-query threshold, and retains it in the /debug/slow
// ring so the tree is inspectable after the log line has scrolled away.
func (s *Server) maybeLogSlow(route, id, q string, elapsed time.Duration, tr *obs.Trace) {
	if s.cfg.SlowQueryLog <= 0 || elapsed < s.cfg.SlowQueryLog {
		return
	}
	s.slow.add(SlowQuery{
		Route:     route,
		Program:   id,
		Query:     q,
		TraceID:   tr.ID(),
		ElapsedUs: elapsed.Microseconds(),
		At:        time.Now(),
		Trace:     tr.Snapshot(),
	})
	s.cfg.Logger.Warn("slow query",
		"route", route,
		"program", id,
		"query", q,
		"elapsed_us", elapsed.Microseconds(),
		"threshold_us", s.cfg.SlowQueryLog.Microseconds(),
		"trace", tr.ID(),
		"phases", "\n"+tr.Tree(),
	)
}

// decodeQuery reads an ask (answers=false) or answers request body into
// the query part of a flight key. The two bodies stay distinct types so
// an ask carrying a limit is still rejected as an unknown field.
func decodeQuery(w http.ResponseWriter, r *http.Request, answers bool) (flightKey, error) {
	if !answers {
		var req askRequest
		err := decodeBody(w, r, &req)
		return flightKey{query: req.Query}, err
	}
	var req answersRequest
	if err := decodeBody(w, r, &req); err != nil {
		return flightKey{}, err
	}
	if req.Limit < 0 {
		return flightKey{}, errors.New("limit must be >= 0")
	}
	// The limit participates in the key: answers with different limits
	// are different result sets and must not share a flight.
	return flightKey{query: req.Query, answers: true, limit: req.Limit}, nil
}

// handleQuery returns the one query pipeline behind POST
// /programs/{id}/ask (answers=false: a closed query, one bool) and
// POST /programs/{id}/answers (answers=true: up to limit bindings).
// Untraced requests coalesce: identical concurrent queries on one
// program revision share a single evaluation (see flight.go).
func (s *Server) handleQuery(answers bool) handler {
	return func(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
		key, err := decodeQuery(w, r, answers)
		if err != nil {
			s.fail(w, rm, err)
			return
		}
		// Capture request-derived values before dispatch: on timeout the
		// worker may still run the closure after this handler has
		// returned, when r is no longer safe to touch.
		key.id = r.PathValue("id")
		wantTrace := wanted(r, "trace")
		// The profile is program-lifetime state read at response-assembly
		// time, so unlike a trace it does not force the request out of
		// the coalescing path.
		wantProfile := wanted(r, "profile")
		traceOn := wantTrace || s.cfg.SlowQueryLog > 0
		tid := obs.IDFrom(r.Context())
		start := time.Now()
		// The revision read is one shard map lookup; it doubles as the 404
		// fast path and pins the coalescing key — identical queries
		// coalesce only within one content revision, so an ingest that
		// moves the program immediately stops answers from riding the
		// stale flight.
		var known bool
		if _, key.rev, known = s.reg.SeqRev(key.id); !known {
			s.fail(w, rm, ErrNotFound)
			return
		}
		var (
			res       queryResult
			tr        *obs.Trace
			coalesced bool
		)
		eval := func() error {
			if res.ent, res.err = s.reg.Lookup(key.id); res.err != nil {
				return res.err
			}
			// The trace starts inside the dispatched closure so queue wait
			// does not smear into the first phase's duration.
			if traceOn {
				tr = obs.NewWithID(tid)
			}
			res = res.ent.query(key, s.metrics, tr)
			return res.err
		}
		// A trace documents one evaluation, so a traced request owns one:
		// it never joins, and nothing joins it (its result is never
		// published to the flight group).
		var (
			f      *flight
			leader bool
		)
		if !traceOn {
			f, leader = s.reg.flights.join(key)
		}
		switch {
		case f == nil:
			err = s.run(w, r, rm, key.id, eval)
		case leader:
			s.metrics.FlightLeaders.Add(1)
			err = s.run(w, r, rm, key.id, eval)
			// On a dispatch error the closure may still be running on an
			// abandoned worker slot; publish only the error, never res.
			f.res = queryResult{err: err}
			if err == nil {
				f.res = res
			}
			s.reg.flights.finish(key, f)
		default:
			s.metrics.Coalesced.Add(1)
			coalesced = true
			if err = s.awaitFlight(r, f); err == nil {
				res = f.res
				err = res.err
			}
			if err != nil {
				s.fail(w, rm, err)
			}
		}
		if err != nil {
			return
		}
		elapsed := time.Since(start)
		meta := queryMeta{Engine: res.engine, ElapsedUs: elapsed.Microseconds(), Coalesced: coalesced, TraceID: tid}
		if wantTrace {
			meta.Trace = mergedTrace(res.ent.CompileTrace(), tr.Snapshot(), res.ent.db.EngineDetail().Rules)
		}
		if wantProfile {
			meta.Profile = res.ent.db.ProfileReport()
		}
		s.maybeLogSlow(key.kind(), key.id, key.query, elapsed, tr)
		if !answers {
			writeJSON(w, http.StatusOK, askResponse{Result: res.result, queryMeta: meta})
			return
		}
		out := answersResponse{
			Answers:   make([]answerJSON, 0, len(res.ans)),
			Count:     len(res.ans),
			Rewrite:   fmt.Sprintf("%d -> %d", res.ent.period.Base+res.ent.period.P, res.ent.period.Base),
			queryMeta: meta,
		}
		for _, a := range res.ans {
			out.Answers = append(out.Answers, answerJSON{Temporal: a.Temporal, NonTemporal: a.NonTemporal})
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// awaitFlight blocks a coalesced request until its flight leader's
// evaluation resolves, honoring the joiner's own deadline. Joiners hold
// no worker, no queue slot, and no shard capacity — that is the point.
func (s *Server) awaitFlight(r *http.Request, f *flight) error {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lookup is the dispatched body of the read-only program routes: a warm
// lookup, or a compile when the program was evicted.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, rm *routeMetrics, id string) (ent *entry, ok bool) {
	err := s.run(w, r, rm, id, func() (err error) {
		ent, err = s.reg.Lookup(id)
		return err
	})
	return ent, err == nil
}

// GET /programs/{id}/period
func (s *Server) handlePeriod(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
	if ent, ok := s.lookup(w, r, rm, r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, ent.periodInfo())
	}
}

// GET /programs/{id}/spec — the exported relational specification, the
// exact JSON tdd.ImportSpec accepts, so clients can serve queries
// locally without the rules or the server.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
	if ent, ok := s.lookup(w, r, rm, r.PathValue("id")); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(ent.specJSON) //nolint:errcheck
	}
}

// GET /programs/{id}/wal — the replication feed: the batch history past
// the caller's cursor (?from=N batches already held), with the base
// sources when the cursor is 0 so an empty follower can bootstrap. The
// feed is built from the registry's in-memory rev chain, so any server —
// durable or not — can lead.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request, rm *routeMetrics) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, rm, fmt.Errorf("bad from cursor %q: %w", v, err))
			return
		}
		from = n
	}
	var feed WalFeed
	id := r.PathValue("id")
	if s.run(w, r, rm, id, func() (err error) {
		feed, err = s.reg.Feed(id, from)
		return err
	}) == nil {
		writeJSON(w, http.StatusOK, feed)
	}
}

// GET /healthz
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *routeMetrics) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// GET /metrics
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request, _ *routeMetrics) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// GET /metrics.prom — the same snapshot in Prometheus text exposition,
// for scrape-based monitoring.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request, _ *routeMetrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.snapshot()
	writePrometheus(w, &snap)
}
