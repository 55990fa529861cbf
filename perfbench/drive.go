package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request with the check its response must pass.
type op struct {
	kind  opKind
	prog  *progState
	q     *query // reads
	path  string
	body  []byte
	batch string // ingest: the renamed batch
	idx   int    // ingest: schedule position
	want  registerWant
	bwant batchWant
}

// tally is one client's record of a phase.
type tally struct {
	start     time.Time           // phase start
	lat       [numKinds][]float64 // µs, every attempted request
	at        [numKinds][]float64 // completion, seconds after start
	okAt      []float64           // completion of each correct request
	attempted int
	ok        [numKinds]int
	failed    int
	wrong     int
	errs      []string // first few failure and mismatch messages
}

func (t *tally) note(format string, args ...any) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
		t.at[k] = append(t.at[k], o.at[k]...)
		t.ok[k] += o.ok[k]
	}
	t.okAt = append(t.okAt, o.okAt...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		t.note("%s", e)
	}
}

func (t *tally) okTotal() int {
	n := 0
	for _, v := range t.ok {
		n += v
	}
	return n
}

// runner sends ops to the live server. With a replayer attached, every
// op is traced: a root span holding the served request's http span and
// the replay spans of the same operation through the library layers.
type runner struct {
	srv    *child
	replay *replayer
}

// exec sends o, checks the response, and (when tracing) replays it.
func (r *runner) exec(o *op, t *tally, tr *tracer) *registerResp {
	var root, hs int
	if tr != nil {
		root = tr.begin(0, "op."+kindName[o.kind])
		hs = tr.begin(tr.spans[root].ID, "http")
	}
	st, body, d, err := r.srv.do(http.MethodPost, o.path, o.body)
	if tr != nil {
		tr.end(hs)
	}
	t.attempted++
	t.lat[o.kind] = append(t.lat[o.kind], float64(d.Nanoseconds())/1e3)
	done := time.Since(t.start).Seconds()
	t.at[o.kind] = append(t.at[o.kind], done)
	if err != nil || st/100 != 2 {
		t.failed++
		t.note("%s %s: status %d, error %v: %.200s", kindName[o.kind], o.path, st, err, body)
		if tr != nil {
			tr.end(root)
		}
		return nil
	}
	var reg *registerResp
	switch o.kind {
	case kGround, kFO:
		err = checkAsk(o.q, body)
	case kAnswers:
		err = checkAnswers(o.q, body)
	case kRegister:
		var rr registerResp
		rr, err = checkRegister(o.want, body)
		reg = &rr
	case kIngest:
		_, err = checkFacts(o.bwant, body)
	}
	if err == nil && tr != nil {
		err = r.replay.op(tr, tr.spans[root].ID, o, body)
	}
	if tr != nil {
		tr.end(root)
	}
	if err != nil {
		t.wrong++
		t.note("%s: %v", kindName[o.kind], err)
		return reg
	}
	t.ok[o.kind]++
	t.okAt = append(t.okAt, done)
	return reg
}

func readOp(p *progState, q *query) *op {
	path := p.askPath
	if q.kind == kAnswers {
		path = p.answersPath
	}
	return &op{kind: q.kind, prog: p, q: q, path: path, body: q.body}
}

func registerOp(p *progState) *op {
	body, _ := json.Marshal(map[string]string{"rules": p.rules, "facts": p.facts})
	return &op{kind: kRegister, prog: p, path: "/programs", body: body, want: p.want}
}

// phase runs one closed-loop client per function and merges their
// tallies and spans.
func phase(clients []func(t *tally, tr *tracer), traced bool, rec *recorder, name string) *tally {
	tallies := make([]*tally, len(clients))
	tracers := make([]*tracer, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		tallies[i] = &tally{start: start}
		if traced {
			tracers[i] = rec.tracer(name)
		}
		wg.Add(1)
		go func(c func(*tally, *tracer), t *tally, tr *tracer) {
			defer wg.Done()
			c(t, tr)
		}(c, tallies[i], tracers[i])
	}
	wg.Wait()
	out := &tally{start: start}
	for i, t := range tallies {
		out.merge(t)
		if tracers[i] != nil {
			rec.add(tracers[i])
		}
	}
	return out
}

// setupOps registers the setup programs and warms each up with one pass
// over its query pools, on one client.
func (b *bench) setupOps(r *runner, t *tally, tr *tracer) error {
	for _, p := range b.setup {
		reg := r.exec(registerOp(p), t, tr)
		if reg == nil {
			return fmt.Errorf("setup registration of %s failed: %v", p.tmpl.name, t.errs)
		}
		p.setID(reg.ID)
		if r.replay != nil {
			if err := r.replay.fetchSpec(r.srv, p.id); err != nil {
				return err
			}
		}
	}
	for _, p := range b.setup {
		for _, pool := range [][]*query{p.ground, p.fo, p.answers} {
			for _, q := range pool {
				r.exec(readOp(p, q), t, tr)
			}
		}
	}
	if t.failed+t.wrong > 0 {
		return fmt.Errorf("setup: %d failed, %d wrong: %v", t.failed, t.wrong, t.errs)
	}
	return nil
}

// clients builds the timed phase's closed-loop clients. Time-bound
// workloads stop at the deadline; ingest_read stops when the writer has
// sent batches [lo, hi) of the schedule to every program.
func (b *bench) clients(r *runner, dur time.Duration, lo, hi int, salt int64) []func(*tally, *tracer) {
	deadline := time.Now().Add(dur)
	rngFor := func(i int) *rand.Rand { return rand.New(rand.NewSource(b.seed*1000 + salt*10 + int64(i))) }
	switch b.name {
	case "warm_read":
		mk := func(i int) func(*tally, *tracer) {
			return func(t *tally, tr *tracer) {
				rng := rngFor(i)
				for time.Now().Before(deadline) {
					p := b.setup[rng.Intn(len(b.setup))]
					var pool []*query
					switch x := rng.Intn(100); {
					case x < 60:
						pool = p.ground
					case x < 90:
						pool = p.fo
					default:
						pool = p.answers
					}
					r.exec(readOp(p, pool[rng.Intn(len(pool))]), t, tr)
				}
			}
		}
		return []func(*tally, *tracer){mk(0), mk(1)}
	case "compile":
		var next atomic.Int64
		next.Store(salt * 1_000_000)
		mk := func() func(*tally, *tracer) {
			return func(t *tally, tr *tracer) {
				for time.Now().Before(deadline) {
					n := next.Add(1) - 1
					i := int(n % int64(len(b.templates)))
					p := &progState{program: newProgram(b.templates[i], fmt.Sprintf("s%dn%d", b.seed, n)), want: b.tmplWant[i]}
					r.exec(registerOp(p), t, tr)
				}
			}
		}
		return []func(*tally, *tracer){mk(), mk()}
	case "ingest_read":
		var done atomic.Bool
		writer := func(t *tally, tr *tracer) {
			defer done.Store(true)
			for j := lo; j < hi; j++ {
				for _, p := range b.setup {
					batch := rename(b.batches[j], p.tag)
					body, _ := json.Marshal(map[string]string{"facts": batch})
					r.exec(&op{kind: kIngest, prog: p, path: p.factsPath, body: body, batch: batch, idx: j, bwant: b.batchWant[j]}, t, tr)
				}
			}
		}
		reader := func(t *tally, tr *tracer) {
			rng := rngFor(1)
			for !done.Load() {
				p := b.setup[rng.Intn(len(b.setup))]
				pool := p.readGround
				if rng.Intn(3) == 0 {
					pool = p.readFO
				}
				r.exec(readOp(p, pool[rng.Intn(len(pool))]), t, tr)
			}
		}
		return []func(*tally, *tracer){writer, reader}
	}
	return nil
}

// headline returns the latencies and completion times of the requests
// behind the workload's op_p50/p99: every read on warm_read, the
// registration on compile, the batch on ingest_read.
func (b *bench) headline(t *tally) (lat, at []float64) {
	kinds := []opKind{kGround, kFO, kAnswers}
	switch b.name {
	case "compile":
		kinds = []opKind{kRegister}
	case "ingest_read":
		kinds = []opKind{kIngest}
	}
	for _, k := range kinds {
		lat = append(lat, t.lat[k]...)
		at = append(at, t.at[k]...)
	}
	return lat, at
}
