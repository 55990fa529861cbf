package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/classify"
	"tdd/internal/core"
	"tdd/internal/obs"
	"tdd/internal/parser"
	qeval "tdd/internal/query"
	"tdd/internal/server"
	"tdd/internal/spec"
	"tdd/internal/wal"
)

// span is one timed interval. Spans of one operation share Op (the root
// span's ID); Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a run in memory until the run ends.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// tracer records one client's spans; only that client touches it.
type tracer struct {
	rec   *recorder
	phase string
	op    int64
	spans []span
}

func (r *recorder) tracer(phase string) *tracer { return &tracer{rec: r, phase: phase} }

func (r *recorder) add(t *tracer) {
	r.mu.Lock()
	r.spans = append(r.spans, t.spans...)
	r.mu.Unlock()
}

// begin opens a span under parent (0 opens a root, starting a new
// operation) and returns its index for end.
func (t *tracer) begin(parent int64, name string) int {
	id := t.rec.ids.Add(1)
	if parent == 0 {
		t.op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Phase: t.phase, Start: int64(time.Since(t.rec.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.rec.t0)) }

// timed runs f as a replay span under parent.
func (t *tracer) timed(parent int64, layer string, f func() error) error {
	i := t.begin(parent, "replay."+layer)
	err := f()
	t.end(i)
	return err
}

// counts are the exact work counters of one compiled program.
type counts struct {
	Derived, Firings, Window, Reps, JSONBytes int
}

// mirror is the in-process replica of one ingested program.
type mirror struct {
	db  *tdd.DB
	log *wal.Log
	seq uint64
	rev string
}

// replayer repeats each served operation through the public functions
// of the library layers, on the same inputs, and fails the operation if
// the replay disagrees with the served response.
type replayer struct {
	srv *server.Server // owns the in-process registry, same config as tddserve
	reg *server.Registry
	// store is a benchmark-owned WAL store for wal.Log.Append.
	store *wal.Store

	mu      sync.Mutex
	specs   map[string]*spec.Loaded // by id, imported from GET /programs/{id}/spec
	mirrors map[string]*mirror
	tmpl    map[string]counts // first counts seen per template key
	setup   []counts          // setup registrations, in order
	flags   []string          // counts that differed between copies of a template
	// inc counters over replayed batches
	batches, incDerived, recertified int
}

func newReplayer(b *bench, dir string) (*replayer, error) {
	cfg := server.Config{}
	if b.durable {
		cfg = server.Config{DataDir: filepath.Join(dir, "registry"), Fsync: "always", SnapshotEvery: 32}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &replayer{srv: srv, reg: srv.Registry(), specs: map[string]*spec.Loaded{}, mirrors: map[string]*mirror{}, tmpl: map[string]counts{}}
	if b.durable {
		if r.store, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.FsyncAlways}); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return r, nil
}

// close releases the in-process registry and store. Their data lives in
// the run's scratch directory, which is removed afterwards, so a close
// error loses nothing.
func (r *replayer) close() {
	r.srv.Close()
	if r.store != nil {
		r.store.Close() //nolint:errcheck // see above
	}
}

// fetchSpec imports the served specification of id for read replays.
func (r *replayer) fetchSpec(c *child, id string) error {
	st, body, _, err := c.do(http.MethodGet, "/programs/"+id+"/spec", nil)
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("GET spec of %s: status %d, %v", id, st, err)
	}
	l, err := spec.Import(body)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.specs[id] = l
	r.mu.Unlock()
	return nil
}

// catchUp brings the in-process registry, the mirrors and the benchmark
// WAL to the server's state after batches [0, n) of the schedule, without
// timing anything.
func (r *replayer) catchUp(b *bench, n int) error {
	for _, p := range b.setup {
		db, err := tdd.Open(p.rules, p.facts, tdd.WithTrace(tdd.NewTrace()), tdd.WithProfile())
		if err != nil {
			return err
		}
		if _, err := db.ExportSpec(); err != nil {
			return err
		}
		db.Lint(p.rules)
		m := &mirror{db: db, rev: p.id}
		if m.log, err = r.store.Create(wal.Base{ID: p.id, Rules: p.rules, Facts: p.facts}); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			batch := rename(b.batches[j], p.tag)
			if _, _, err := r.reg.Ingest(p.id, batch); err != nil {
				return err
			}
			fork := m.db.Fork()
			if _, err := fork.Assert(batch); err != nil {
				return err
			}
			if _, err := fork.ExportSpec(); err != nil {
				return err
			}
			fork.Lint(p.rules)
			m.db = fork
		}
		r.mirrors[p.id] = m
	}
	return nil
}

func (r *replayer) op(t *tracer, root int64, o *op, body []byte) error {
	switch o.kind {
	case kGround, kFO, kAnswers:
		return r.read(t, root, o, body)
	case kRegister:
		return r.register(t, root, o, body)
	case kIngest:
		return r.ingest(t, root, o, body)
	}
	return nil
}

func (r *replayer) read(t *tracer, root int64, o *op, body []byte) error {
	id := o.prog.id
	r.mu.Lock()
	l := r.specs[id]
	r.mu.Unlock()
	if l == nil {
		return fmt.Errorf("replay: no specification for %s", id)
	}
	if err := t.timed(root, "registry.lookup", func() error { _, err := r.reg.Lookup(id); return err }); err != nil {
		return err
	}
	var pq ast.Query
	if err := t.timed(root, "parser.parse_query", func() (err error) { pq, err = parser.ParseQuery(o.q.text, l.Preds()); return }); err != nil {
		return err
	}
	if o.kind == kAnswers {
		var ans []qeval.Answer
		if err := t.timed(root, "query.answers", func() (err error) { ans, err = qeval.AnswersLimit(l, pq, answersLimit); return }); err != nil {
			return err
		}
		var served answersResp
		if err := json.Unmarshal(body, &served); err != nil {
			return err
		}
		if len(ans) != served.Count {
			return fmt.Errorf("replay %s: %d answers, served %d", o.q.text, len(ans), served.Count)
		}
		for _, a := range ans {
			if !o.q.answers[answerKey(a.Temporal, a.NonTemporal)] {
				return fmt.Errorf("replay %s: answer %v is not an oracle answer", o.q.text, a)
			}
		}
		return nil
	}
	var got bool
	if err := t.timed(root, "query.eval", func() (err error) { got, err = qeval.Eval(l, pq); return }); err != nil {
		return err
	}
	if got != o.q.want {
		return fmt.Errorf("replay %s: %v, served %v", o.q.text, got, o.q.want)
	}
	return nil
}

func (r *replayer) register(t *tracer, root int64, o *op, body []byte) error {
	var served registerResp
	if err := json.Unmarshal(body, &served); err != nil {
		return err
	}
	p := o.prog
	var (
		prog *ast.Program
		db   *ast.Database
		bt   *core.BT
		s    *spec.Spec
		js   []byte
	)
	steps := []struct {
		layer string
		f     func() error
	}{
		{"parser.parse_program", func() (err error) {
			if prog, err = parser.ParseProgram(p.rules); err != nil {
				return err
			}
			db, err = parser.ParseDatabase(p.facts)
			return err
		}},
		// The registry's options: a lifetime trace and the join profiler.
		{"core.new", func() (err error) {
			bt, err = core.New(prog, db, core.WithTrace(obs.New()), core.WithProfile())
			return err
		}},
		// With a trace attached, certification includes classify.Analyze.
		{"core.certify", func() error { _, err := bt.Period(); return err }},
		{"classify.analyze", func() error { classify.Analyze(prog.Clone(), classify.AnalyzeOptions{}); return nil }},
		{"spec.export", func() (err error) {
			if s, err = bt.Specification(); err != nil {
				return err
			}
			js, err = s.Export(bt.Preds())
			return err
		}},
		{"spec.import", func() error { _, err := spec.Import(js); return err }},
		{"lint.run", func() error { bt.Lint(p.rules); return nil }},
		{"registry.register", func() error {
			ent, existing, err := r.reg.Register("", p.rules, p.facts)
			if err == nil && (existing || ent.ID() != served.ID) {
				err = fmt.Errorf("replay registration: id %s existing %v, served id %s", ent.ID(), existing, served.ID)
			}
			return err
		}},
	}
	for _, st := range steps {
		if err := t.timed(root, st.layer, st.f); err != nil {
			return fmt.Errorf("replay %s: %w", st.layer, err)
		}
	}
	reps, facts := s.Size()
	if err := (registerWant{Base: s.Period.Base, P: s.Period.P, Reps: reps, Facts: facts}).check(served.Period, served.Representatives, served.Facts); err != nil {
		return fmt.Errorf("replay disagrees with served registration: %w", err)
	}
	st := bt.EngineStats()
	w, err := bt.Work()
	if err != nil {
		return err
	}
	c := counts{Derived: st.Derived, Firings: st.Firings, Window: w.Window, Reps: reps, JSONBytes: len(js)}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Renaming lengthens names, so only the JSON size may differ between
	// copies of one template.
	same := c
	same.JSONBytes = 0
	if prev, ok := r.tmpl[p.tmpl.key]; !ok {
		r.tmpl[p.tmpl.key] = same
	} else if prev != same && len(r.flags) < 10 {
		r.flags = append(r.flags, fmt.Sprintf("%s: counts %+v differ from an earlier copy's %+v", p.tmpl.key, same, prev))
	}
	if t.phase == "setup" {
		r.setup = append(r.setup, c)
	}
	return nil
}

func (r *replayer) ingest(t *tracer, root int64, o *op, body []byte) error {
	var served factsResp
	if err := json.Unmarshal(body, &served); err != nil {
		return err
	}
	p := o.prog
	m := r.mirrors[p.id]
	var (
		fork *tdd.DB
		res  tdd.AssertResult
		js   []byte
		sdb  *tdd.SpecDB
	)
	rec := wal.Record{Seq: m.seq + 1, Prev: m.rev, Rev: wal.NextRev(m.rev, o.batch), Batch: o.batch}
	steps := []struct {
		layer string
		f     func() error
	}{
		{"registry.ingest", func() error {
			_, rr, err := r.reg.Ingest(p.id, o.batch)
			if err == nil && (rr.NewFacts != served.NewFacts || rr.Derived != served.Derived) {
				err = fmt.Errorf("registry new/derived %d/%d, served %d/%d", rr.NewFacts, rr.Derived, served.NewFacts, served.Derived)
			}
			return err
		}},
		{"inc.assert", func() (err error) { fork = m.db.Fork(); res, err = fork.Assert(o.batch); return }},
		{"spec.export", func() (err error) { js, err = fork.ExportSpec(); return }},
		{"spec.import", func() (err error) { sdb, err = tdd.ImportSpec(js); return }},
		{"lint.run", func() error { fork.Lint(p.rules); return nil }},
		{"wal.append", func() error { return m.log.Append(rec) }},
	}
	for _, st := range steps {
		if err := t.timed(root, st.layer, st.f); err != nil {
			return fmt.Errorf("replay %s: %w", st.layer, err)
		}
	}
	m.db, m.seq, m.rev = fork, rec.Seq, rec.Rev
	per := sdb.Period()
	if res.NewFacts != served.NewFacts || res.Duplicates != served.Duplicates || res.Derived != served.Derived ||
		per.Base != served.Period.Base || per.P != served.Period.P {
		return fmt.Errorf("replay batch %d: new/dup/derived %d/%d/%d period %v; served %d/%d/%d (b=%d, p=%d)",
			o.idx, res.NewFacts, res.Duplicates, res.Derived, per,
			served.NewFacts, served.Duplicates, served.Derived, served.Period.Base, served.Period.P)
	}
	r.batches++
	r.incDerived += res.Derived
	if res.Recertified {
		r.recertified++
	}
	return nil
}

// writeSpans writes every span of the run to path as JSON.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
