package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tdd"
)

type opKind int

const (
	kGround opKind = iota
	kFO
	kAnswers
	kRegister
	kIngest
	numKinds
)

var kindName = [numKinds]string{"ask_ground", "ask_fo", "answers", "register", "ingest"}

// answersLimit is the limit every open query is sent with.
const answersLimit = 16

// query is one read with its expected outcome, computed in-process.
type query struct {
	kind opKind
	text string
	body []byte
	want bool
	// answers is the full answer set of an open query, as canonical keys;
	// a served answer must be a member and the served count must be
	// min(len(answers), answersLimit).
	answers map[string]bool
}

// registerWant is the template-determined part of a registration
// response: renaming never changes it.
type registerWant struct {
	Base, P, Reps, Facts int
}

// batchWant is the expected response to one ingested batch.
type batchWant struct {
	New, Dup, Derived int
	registerWant
}

type periodJSON struct {
	Base int `json:"base"`
	P    int `json:"p"`
}

type registerResp struct {
	ID              string     `json:"id"`
	Existing        bool       `json:"existing"`
	Period          periodJSON `json:"period"`
	Representatives int        `json:"representatives"`
	Facts           int        `json:"facts"`
}

type factsResp struct {
	NewFacts        int        `json:"new_facts"`
	Duplicates      int        `json:"duplicates"`
	Derived         int        `json:"derived"`
	Recertified     bool       `json:"recertified"`
	Period          periodJSON `json:"period"`
	Representatives int        `json:"representatives"`
	Facts           int        `json:"facts"`
}

type askResp struct {
	Result bool   `json:"result"`
	Engine string `json:"engine"`
}

type answerJSON struct {
	Temporal    map[string]int    `json:"temporal"`
	NonTemporal map[string]string `json:"non_temporal"`
}

type answersResp struct {
	Answers []answerJSON `json:"answers"`
	Count   int          `json:"count"`
	Engine  string       `json:"engine"`
}

func answerKey(temporal map[string]int, nonTemporal map[string]string) string {
	parts := make([]string, 0, len(temporal)+len(nonTemporal))
	for k, v := range temporal {
		parts = append(parts, k+"="+strconv.Itoa(v))
	}
	for k, v := range nonTemporal {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// newQuery evaluates text on the oracle database db, which is opened
// from the program source and never exported or imported.
func newQuery(db *tdd.DB, kind opKind, text string) (*query, error) {
	q := &query{kind: kind, text: text}
	var err error
	if kind == kAnswers {
		q.body, _ = json.Marshal(map[string]any{"query": text, "limit": answersLimit})
		ans, aerr := db.Answers(text)
		if aerr != nil {
			return nil, fmt.Errorf("oracle %q: %w", text, aerr)
		}
		q.answers = make(map[string]bool, len(ans))
		for _, a := range ans {
			q.answers[answerKey(a.Temporal, a.NonTemporal)] = true
		}
		return q, nil
	}
	q.body, _ = json.Marshal(map[string]any{"query": text})
	if q.want, err = db.Ask(text); err != nil {
		return nil, fmt.Errorf("oracle %q: %w", text, err)
	}
	return q, nil
}

func wantOf(db *tdd.DB) (registerWant, error) {
	per, err := db.Period()
	if err != nil {
		return registerWant{}, err
	}
	reps, facts, err := db.SpecificationSize()
	return registerWant{Base: per.Base, P: per.P, Reps: reps, Facts: facts}, err
}

func (w registerWant) check(p periodJSON, reps, facts int) error {
	if p.Base != w.Base || p.P != w.P {
		return fmt.Errorf("period (b=%d, p=%d), want (b=%d, p=%d)", p.Base, p.P, w.Base, w.P)
	}
	if reps != w.Reps || facts != w.Facts {
		return fmt.Errorf("%d representatives, %d facts; want %d, %d", reps, facts, w.Reps, w.Facts)
	}
	return nil
}

func checkAsk(q *query, body []byte) error {
	var r askResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Result != q.want {
		return fmt.Errorf("%s: served %v, oracle %v", q.text, r.Result, q.want)
	}
	return nil
}

func checkAnswers(q *query, body []byte) error {
	var r answersResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	want := min(len(q.answers), answersLimit)
	if r.Count != want || len(r.Answers) != want {
		return fmt.Errorf("%s: served %d answers, oracle has %d (limit %d)", q.text, len(r.Answers), len(q.answers), answersLimit)
	}
	seen := make(map[string]bool, len(r.Answers))
	for _, a := range r.Answers {
		k := answerKey(a.Temporal, a.NonTemporal)
		if !q.answers[k] || seen[k] {
			return fmt.Errorf("%s: served answer %s is not an oracle answer or repeats", q.text, k)
		}
		seen[k] = true
	}
	return nil
}

func checkRegister(w registerWant, body []byte) (registerResp, error) {
	var r registerResp
	if err := json.Unmarshal(body, &r); err != nil {
		return r, err
	}
	if r.Existing {
		return r, fmt.Errorf("program %s reported as already registered", r.ID)
	}
	return r, w.check(r.Period, r.Representatives, r.Facts)
}

func checkFacts(w batchWant, body []byte) (factsResp, error) {
	var r factsResp
	if err := json.Unmarshal(body, &r); err != nil {
		return r, err
	}
	if r.NewFacts != w.New || r.Duplicates != w.Dup || r.Derived != w.Derived {
		return r, fmt.Errorf("batch new/dup/derived %d/%d/%d, want %d/%d/%d",
			r.NewFacts, r.Duplicates, r.Derived, w.New, w.Dup, w.Derived)
	}
	return r, w.check(r.Period, r.Representatives, r.Facts)
}

// selfTest plants a wrong answer, a wrong answer set and a wrong period
// and requires the checker to reject each; it also requires the checker
// to accept the right ones, so a checker that rejects everything fails
// too.
func selfTest() error {
	rules, facts := "even(T+2) :- even(T).\n", "even(0).\n"
	db, err := tdd.Open(rules, facts)
	if err != nil {
		return err
	}
	ask, err := newQuery(db, kGround, "even(1000000)")
	if err != nil {
		return err
	}
	ans, err := newQuery(db, kAnswers, "even(T)")
	if err != nil {
		return err
	}
	want, err := wantOf(db)
	if err != nil {
		return err
	}
	all, err := db.Answers("even(T)")
	if err != nil {
		return err
	}
	served := answersResp{Count: len(all)}
	for _, a := range all {
		served.Answers = append(served.Answers, answerJSON{Temporal: a.Temporal})
	}
	rightAns, _ := json.Marshal(served)
	served.Answers[0] = answerJSON{Temporal: map[string]int{"T": 1}}
	wrongAns, _ := json.Marshal(served)
	rightReg, _ := json.Marshal(registerResp{Period: periodJSON{want.Base, want.P}, Representatives: want.Reps, Facts: want.Facts})
	wrongReg, _ := json.Marshal(registerResp{Period: periodJSON{want.Base, want.P + 1}, Representatives: want.Reps, Facts: want.Facts})
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		{"right answer", checkAsk(ask, []byte(`{"result":true}`)), true},
		{"planted wrong answer", checkAsk(ask, []byte(`{"result":false}`)), false},
		{"right answer set", checkAnswers(ans, rightAns), true},
		{"planted wrong answer set", checkAnswers(ans, wrongAns), false},
		{"right period", func() error { _, e := checkRegister(want, rightReg); return e }(), true},
		{"planted wrong period", func() error { _, e := checkRegister(want, wrongReg); return e }(), false},
	}
	var errs []error
	for _, c := range cases {
		if (c.err == nil) != c.ok {
			errs = append(errs, fmt.Errorf("oracle self-test %q: checker returned %v", c.name, c.err))
		}
	}
	return errors.Join(errs...)
}
