package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"tdd"
)

// progState is a registered program with its checked query pools.
type progState struct {
	*program
	want                 registerWant
	ground, fo, answers  []*query // setup warm-up, and warm_read's mix
	readGround, readFO   []*query // ingest_read reader: monotone truth values
	askPath, answersPath string
	factsPath            string
}

func (p *progState) setID(id string) {
	p.id = id
	p.askPath = "/programs/" + id + "/ask"
	p.answersPath = "/programs/" + id + "/answers"
	p.factsPath = "/programs/" + id + "/facts"
}

// bench is one workload instance: everything it sends, generated from
// the seed, with every expected response.
type bench struct {
	name    string
	seed    int64
	flags   []string // server flags beyond the defaults
	durable bool     // adds -data <fresh dir>

	// setup holds the programs registered (and warmed up) before timing.
	setup []*progState

	// compile: the round-robin templates and their expected registrations.
	templates []*template
	tmplWant  []registerWant

	// ingest_read: the write schedule in template namespace and the
	// expected response to each batch, identical for every renamed copy.
	batches   []string
	batchWant []batchWant
}

// Workload sizes. They are recorded in README.md; change both together.
const (
	ingestCopies        = 24
	ingestBatchesPerSec = 6 // batches per program per second of --seconds
	readerPool          = 24
)

var workloadNames = []string{"warm_read", "compile", "ingest_read"}

func newBench(name string, seed int64, seconds int) (*bench, error) {
	b := &bench{name: name, seed: seed}
	// Program structures use fixed generator seeds, so every run seed
	// serves programs of the same cost; the run seed picks the renaming,
	// the queries, the write schedule and each client's operation order.
	rng := rand.New(rand.NewSource(seed))
	var err error
	switch name {
	case "warm_read":
		var fleet []*template
		for i := 0; i < 4; i++ {
			fleet = append(fleet, skiTemplate(40, 4, 4, 2, int64(i+1)))
		}
		for i := 0; i < 2; i++ {
			fleet = append(fleet, skiTemplate(365, 16, 32, 5, int64(i+1)))
		}
		for i := 0; i < 2; i++ {
			fleet = append(fleet, distractorTemplate([]int{3, 5, 7}, 40))
		}
		for i := 0; i < 2; i++ {
			fleet = append(fleet, counterTemplate(8))
		}
		for i := 0; i < 2; i++ {
			fleet = append(fleet, reachTemplate(64, 96, int64(i+1)))
		}
		err = b.addSetup(rng, fleet)
	case "compile":
		b.templates = []*template{
			skiTemplate(120, 8, 8, 3, 1),
			counterTemplate(6),
			distractorTemplate([]int{3, 5}, 20),
			reachTemplate(32, 48, 1),
			cyclesTemplate(4),
		}
		for _, t := range b.templates {
			db, oerr := tdd.Open(t.rules, t.facts)
			if oerr != nil {
				return nil, oerr
			}
			w, oerr := wantOf(db)
			if oerr != nil {
				return nil, fmt.Errorf("%s: %w", t.name, oerr)
			}
			b.tmplWant = append(b.tmplWant, w)
		}
		err = b.addSetup(rng, b.templates)
	case "ingest_read":
		b.durable = true
		b.flags = []string{"-fsync", "always", "-snapshot-every", "32"}
		t := skiTemplate(40, 8, 6, 2, 1)
		copies := make([]*template, ingestCopies)
		for i := range copies {
			copies[i] = t
		}
		if err = b.addSetup(rng, copies); err != nil {
			return nil, err
		}
		b.batches = skiBatches(rng, 40, 8, ingestBatchesPerSec*seconds)
		err = b.ingestOracle(rng, t)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// addSetup renames each template into a setup program and computes its
// expected registration and query answers on an oracle database.
func (b *bench) addSetup(rng *rand.Rand, ts []*template) error {
	for i, t := range ts {
		p := &progState{program: newProgram(t, fmt.Sprintf("s%dp%d", b.seed, i))}
		db, err := tdd.Open(p.rules, p.facts)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if p.want, err = wantOf(db); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		g, f, a := t.queries(rng)
		for _, set := range []struct {
			kind opKind
			src  []string
			dst  *[]*query
		}{{kGround, g, &p.ground}, {kFO, f, &p.fo}, {kAnswers, a, &p.answers}} {
			for _, text := range set.src {
				q, err := newQuery(db, set.kind, rename(text, p.tag))
				if err != nil {
					return err
				}
				*set.dst = append(*set.dst, q)
			}
		}
		b.setup = append(b.setup, p)
	}
	return nil
}

// ingestOracle replays the write schedule on an in-process copy of the
// template, making the same calls on the same database the registry
// makes per batch, and derives the reader's query pools: a positive
// query true at base stays true as facts arrive, and one false in the
// final model was false all along.
func (b *bench) ingestOracle(rng *rand.Rand, t *template) error {
	db, err := tdd.Open(t.rules, t.facts, tdd.WithTrace(tdd.NewTrace()), tdd.WithProfile())
	if err != nil {
		return err
	}
	if _, err := db.ExportSpec(); err != nil {
		return err
	}
	db.Lint(t.rules)
	base := db
	for _, batch := range b.batches {
		fork := db.Fork()
		res, err := fork.Assert(batch)
		if err != nil {
			return err
		}
		if _, err := fork.ExportSpec(); err != nil {
			return err
		}
		fork.Lint(t.rules)
		w, err := wantOf(fork)
		if err != nil {
			return err
		}
		b.batchWant = append(b.batchWant, batchWant{New: res.NewFacts, Dup: res.Duplicates, Derived: res.Derived, registerWant: w})
		db = fork
	}
	for _, p := range b.setup {
		g, f := skiReaderQueries(rng, 8, readerPool)
		for _, set := range []struct {
			kind opKind
			src  []string
			dst  *[]*query
		}{{kGround, g, &p.readGround}, {kFO, f, &p.readFO}} {
			for _, text := range set.src {
				atBase, err := base.Ask(text)
				if err != nil {
					return err
				}
				atEnd, err := db.Ask(text)
				if err != nil {
					return err
				}
				if atBase != atEnd && atBase {
					return fmt.Errorf("oracle: positive query %q turned false under insertion", text)
				}
				if atBase != atEnd {
					continue // its truth value changes during the run
				}
				body, _ := json.Marshal(map[string]any{"query": rename(text, p.tag)})
				*set.dst = append(*set.dst, &query{kind: set.kind, text: rename(text, p.tag), body: body, want: atBase})
			}
		}
		if len(p.readGround) == 0 || len(p.readFO) == 0 {
			return fmt.Errorf("ingest_read: empty reader pool for %s", p.tag)
		}
	}
	return nil
}

// describe is the workload's provenance line: sizes, clients, loop,
// server flags and fsync policy.
func (b *bench) describe() map[string]any {
	names := map[string]int{}
	for _, p := range b.setup {
		names[p.tmpl.name]++
	}
	var progs []string
	for n, c := range names {
		progs = append(progs, fmt.Sprintf("%dx %s", c, n))
	}
	sort.Strings(progs)
	d := map[string]any{
		"workload":       b.name,
		"seed":           b.seed,
		"clients":        2,
		"loop":           "closed",
		"server_flags":   append([]string{"-addr", "127.0.0.1:0"}, b.flags...),
		"setup_programs": progs,
		"fsync":          "interval (default; no data directory)",
	}
	if b.durable {
		d["fsync"] = "always"
		d["server_flags"] = append(d["server_flags"].([]string), "-data", "<fresh dir>")
		d["batches_per_program"] = len(b.batches)
		d["facts_per_batch"] = 2
	}
	if len(b.templates) > 0 {
		var ts []string
		for _, t := range b.templates {
			ts = append(ts, t.name)
		}
		d["round_robin_templates"] = ts
	}
	return d
}
