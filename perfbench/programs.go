package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tdd/internal/workload"
)

// template is one generated program before renaming, with the query
// generator that knows its predicates and constants. Queries are written
// in the template's namespace and renamed together with the program.
type template struct {
	name    string
	key     string // name plus generator seed: equal keys mean equal programs
	rules   string
	facts   string
	queries func(rng *rand.Rand) (ground, fo, answers []string)
}

// program is a renamed copy of a template as the server sees it.
type program struct {
	tmpl  *template
	tag   string
	rules string
	facts string
	id    string // assigned by the server at registration
}

func newProgram(t *template, tag string) *program {
	return &program{tmpl: t, tag: tag, rules: rename(t.rules, tag), facts: rename(t.facts, tag)}
}

// queryKeywords are the lower-case words of the query grammar; they are
// never renamed.
var queryKeywords = map[string]bool{"not": true, "exists": true, "forall": true, "or": true, "and": true}

// rename appends "_"+tag to every lower-case identifier (predicate or
// constant) of a program, fact batch or query. Variables and numbers are
// untouched, and renamed constants stay non-numeric, so sort inference
// is unchanged: the renamed program has the template's period,
// representatives, fact counts and answers, but a new content hash.
func rename(src, tag string) string {
	var b strings.Builder
	b.Grow(len(src) + len(src)/4)
	word := func(c byte) bool {
		return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	for i := 0; i < len(src); {
		if !word(src[i]) {
			b.WriteByte(src[i])
			i++
			continue
		}
		j := i
		for j < len(src) && word(src[j]) {
			j++
		}
		w := src[i:j]
		b.WriteString(w)
		if w[0] >= 'a' && w[0] <= 'z' && !queryKeywords[w] {
			b.WriteByte('_')
			b.WriteString(tag)
		}
		i = j
	}
	return b.String()
}

// deep returns a time point at least 10^6, far beyond any evaluated
// window, so a ground ask is answered by a rewrite.
func deep(rng *rand.Rand) int { return 1_000_000 + rng.Intn(1_000_000) }

// forms lists a family's query shapes; a pool cycles through them in
// order, so its cost profile does not depend on the seed, which only
// picks constants and time points.
func forms(fs ...func() string) []func() string { return fs }

// Pool sizes per program: enough distinct queries that a run's mix does
// not hinge on a few of them.
const (
	poolGround  = 24
	poolFO      = 12
	poolAnswers = 6
)

func pools(g, f, a []func() string) (ground, fo, answers []string) {
	for i := 0; i < poolGround; i++ {
		ground = append(ground, g[i%len(g)]())
	}
	for i := 0; i < poolFO; i++ {
		fo = append(fo, f[i%len(f)]())
	}
	for i := 0; i < poolAnswers; i++ {
		answers = append(answers, a[i%len(a)]())
	}
	return ground, fo, answers
}

func skiTemplate(year, resorts, planes, holidays int, seed int64) *template {
	rules, facts := workload.Ski(workload.SkiParams{YearLen: year, Resorts: resorts, Planes: planes, Holidays: holidays, Seed: seed})
	return &template{
		name:  fmt.Sprintf("ski(%d,%d,%d)", year, resorts, planes),
		key:   fmt.Sprintf("ski(%d,%d,%d,%d)#%d", year, resorts, planes, holidays, seed),
		rules: rules,
		facts: facts,
		queries: func(rng *rand.Rand) ([]string, []string, []string) {
			r := func() int { return rng.Intn(resorts) }
			return pools(
				forms(
					func() string { return fmt.Sprintf("plane(%d, r%d)", deep(rng), r()) },
					func() string { return fmt.Sprintf("plane(%d, r%d)", deep(rng), r()) },
					func() string { return fmt.Sprintf("winter(%d)", deep(rng)) },
					func() string { return fmt.Sprintf("holiday(%d)", deep(rng)) }),
				forms(
					func() string { return fmt.Sprintf("exists T (plane(T, r%d) & holiday(T))", r()) },
					func() string { return fmt.Sprintf("exists T (plane(T, r%d) & plane(T, r%d))", r(), r()) },
					func() string { return "exists T (winter(T) & offseason(T))" },
					func() string { return "forall X (!resort(X) | exists T plane(T, X))" },
					func() string {
						return fmt.Sprintf("forall T (!plane(T, r%[1]d) | !offseason(T) | plane(T+7, r%[1]d))", r())
					}),
				forms(
					func() string { return fmt.Sprintf("plane(T, r%d)", r()) },
					func() string { return "exists T plane(T, X)" }))
		},
	}
}

// skiReaderQueries are the positive (hence monotone under fact
// insertion) queries the ingest_read reader sends.
func skiReaderQueries(rng *rand.Rand, resorts, n int) (ground, fo []string) {
	r := func() int { return rng.Intn(resorts) }
	fs := forms(
		func() string { return fmt.Sprintf("exists T (plane(T, r%d) & holiday(T))", r()) },
		func() string { return fmt.Sprintf("exists T (plane(T, r%d) & plane(T, r%d))", r(), r()) },
		func() string { return fmt.Sprintf("exists T (plane(T, r%d) & winter(T))", r()) })
	for i := 0; i < n; i++ {
		ground = append(ground, fmt.Sprintf("plane(%d, r%d)", deep(rng), r()))
		fo = append(fo, fs[i%len(fs)]())
	}
	return ground, fo
}

func reachTemplate(nodes, edges int, seed int64) *template {
	rules, facts := workload.Reachability(workload.ReachParams{Nodes: nodes, Edges: edges, Seed: seed})
	return &template{
		name:  fmt.Sprintf("reach(%d,%d)", nodes, edges),
		key:   fmt.Sprintf("reach(%d,%d)#%d", nodes, edges, seed),
		rules: rules,
		facts: facts,
		queries: func(rng *rand.Rand) ([]string, []string, []string) {
			n := func() int { return rng.Intn(nodes) }
			return pools(
				forms(func() string { return fmt.Sprintf("path(%d, n%d, n%d)", deep(rng), n(), n()) }),
				forms(
					func() string { return fmt.Sprintf("exists K path(K, n%d, n%d)", n(), n()) },
					func() string { return fmt.Sprintf("forall Y (!node(Y) | exists K path(K, n%d, Y))", n()) },
					func() string {
						a, b := n(), n()
						return fmt.Sprintf("exists K (path(K, n%d, n%d) & path(K, n%d, n%d))", a, b, b, a)
					},
					func() string { return fmt.Sprintf("exists X (edge(n%d, X) & edge(X, n%d))", n(), n()) }),
				forms(
					func() string { return fmt.Sprintf("path(K, n%d, Y)", n()) },
					func() string { return fmt.Sprintf("exists K path(K, X, n%d)", n()) }))
		},
	}
}

func counterTemplate(bits int) *template {
	rules, facts := workload.Counter(bits)
	return &template{
		name:  fmt.Sprintf("counter(%d)", bits),
		key:   fmt.Sprintf("counter(%d)", bits),
		rules: rules,
		facts: facts,
		queries: func(rng *rand.Rand) ([]string, []string, []string) {
			b := func() int { return rng.Intn(bits) }
			return pools(
				forms(
					func() string { return fmt.Sprintf("one(%d, b%d)", deep(rng), b()) },
					func() string { return fmt.Sprintf("zero(%d, b%d)", deep(rng), b()) },
					func() string { return fmt.Sprintf("carry(%d, b%d)", deep(rng), b()) }),
				forms(
					func() string { return fmt.Sprintf("exists T (one(T, b0) & one(T, b%d))", b()) },
					func() string { return fmt.Sprintf("forall T (!one(T, b%[1]d) | !zero(T, b%[1]d))", b()) },
					func() string { return fmt.Sprintf("exists T (one(T, b%[1]d) & zero(T, b%[1]d))", b()) },
					func() string { return "forall X (!first(X) | exists T carry(T, X))" }),
				forms(
					func() string { return fmt.Sprintf("one(T, b%d)", b()) },
					func() string { return "exists T one(T, X)" }))
		},
	}
}

func distractorTemplate(steps []int, junk int) *template {
	rules, facts := workload.Distractor(steps, junk)
	return &template{
		name:  fmt.Sprintf("distractor(%v,%d)", steps, junk),
		key:   fmt.Sprintf("distractor(%v,%d)", steps, junk),
		rules: rules,
		facts: facts,
		queries: func(rng *rand.Rand) ([]string, []string, []string) {
			j := func() int { return rng.Intn(junk) }
			d := func() int { return rng.Intn(len(steps)) }
			return pools(
				forms(
					func() string { return fmt.Sprintf("q(%d, c%d)", deep(rng), rng.Intn(2)) },
					func() string { return fmt.Sprintf("d%d(%d, j%d)", d(), deep(rng), j()) }),
				forms(
					func() string { return "exists T q(T, c1)" },
					func() string { return fmt.Sprintf("exists T (d0(T, j%[1]d) & d1(T, j%[1]d))", j()) },
					func() string { return "forall X (!rel(X) | exists T q(T, X))" },
					func() string { return fmt.Sprintf("forall X (!junk(X) | exists T d%d(T, X))", d()) }),
				forms(
					func() string { return "q(T, X)" },
					func() string { return fmt.Sprintf("d0(T, j%d)", j()) }))
		},
	}
}

func cyclesTemplate(k int) *template {
	rules, facts := workload.Cycles(workload.Primes(k))
	return &template{
		name:  fmt.Sprintf("cycles(%d)", k),
		key:   fmt.Sprintf("cycles(%d)", k),
		rules: rules,
		facts: facts,
		queries: func(rng *rand.Rand) ([]string, []string, []string) {
			c := func() int { return rng.Intn(k) }
			return pools(
				forms(func() string { return fmt.Sprintf("cyc%d(%d)", c(), deep(rng)) }),
				forms(
					func() string { return "exists T (cyc0(T) & cyc1(T) & cyc2(T) & cyc3(T))" },
					func() string { return fmt.Sprintf("forall T (!cyc%[1]d(T) | cyc%[1]d(T+%[2]d))", c(), 2*rng.Intn(3)+1) }),
				forms(func() string { return fmt.Sprintf("cyc%d(T)", c()) }))
		},
	}
}

// skiBatches is the ingest_read write schedule: n batches of two plane
// facts drawn from the bounded (day, resort) pool of one year, so the
// model cannot outgrow the pool however far a run gets.
func skiBatches(rng *rand.Rand, year, resorts, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("plane(%d, r%d).\nplane(%d, r%d).\n",
			rng.Intn(year), rng.Intn(resorts), rng.Intn(year), rng.Intn(resorts))
	}
	return out
}
