package querygen_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/rendered.crc from the current renderers")

// pinRows is the ordered (name, CRC32) table of the byte pin.
type pinRows struct{ b bytes.Buffer }

func (p *pinRows) add(name string, crc uint32) { fmt.Fprintf(&p.b, "%s %08x\n", name, crc) }

// pinQueries adds, per syntax, the CRC of the per-query file bytes and
// of the count-wrapped translations of qs. A rendering error is part
// of the pinned behaviour: it goes into the CRC as its message.
func (p *pinRows) pinQueries(name string, qs []*query.Query) {
	for _, syn := range translate.Syntaxes {
		file, count := crc32.NewIEEE(), crc32.NewIEEE()
		for i, q := range qs {
			content, err := querygen.QueryFileContent(i, q, syn)
			if err != nil {
				content = []byte("error: " + err.Error())
			}
			file.Write(content)
			text, err := translate.To(syn, q, translate.Options{Count: true})
			if err != nil {
				text = "error: " + err.Error()
			}
			count.Write([]byte(text))
		}
		p.add(fmt.Sprintf("%s.%s.file", name, syn), file.Sum32())
		p.add(fmt.Sprintf("%s.%s.count", name, syn), count.Sum32())
	}
}

// rule builds one rule from "src dst expr" conjunct triples.
func rule(head []query.Var, conjuncts ...any) query.Rule {
	r := query.Rule{Head: head}
	for i := 0; i < len(conjuncts); i += 3 {
		r.Body = append(r.Body, query.Conjunct{
			Src:  query.Var(conjuncts[i].(int)),
			Dst:  query.Var(conjuncts[i+1].(int)),
			Expr: regpath.MustParse(conjuncts[i+2].(string)),
		})
	}
	return r
}

// edgeCaseQueries are the hand-written renderer edge cases of the pin:
// what the generator's presets never or rarely produce.
func edgeCaseQueries() []struct {
	name string
	q    *query.Query
} {
	one := func(r ...query.Rule) *query.Query { return &query.Query{Rules: r} }
	longChain := query.Rule{Head: []query.Var{0, 65, 70}}
	for i := 0; i < 70; i++ {
		longChain.Body = append(longChain.Body, query.Conjunct{
			Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse("a.b-"),
		})
	}
	flagged := one(rule([]query.Var{0, 1}, 0, 1, "a"))
	flagged.Shape, flagged.HasClass, flagged.Class, flagged.Relaxed = query.StarChain, true, query.Quadratic, true
	return []struct {
		name string
		q    *query.Query
	}{
		{"boolean", one(rule(nil, 0, 1, "a.b", 1, 2, "(c)*"))},
		{"boolean-union", one(rule(nil, 0, 1, "a"), rule(nil, 0, 1, "b-"))},
		{"eps-only", one(rule([]query.Var{0, 1}, 0, 1, "eps"))},
		{"eps-star", one(rule([]query.Var{0, 1}, 0, 1, "(eps)*"))},
		{"eps-disjunct", one(rule([]query.Var{0, 1}, 0, 1, "(eps+a)", 1, 2, "(eps+a.b+c)"))},
		{"eps-under-star", one(rule([]query.Var{0, 1}, 0, 1, "(eps+a.b)*"))},
		{"union", one(
			rule([]query.Var{0, 2}, 0, 1, "a", 1, 2, "(b+c.d)*"),
			rule([]query.Var{0, 1}, 0, 1, "(a+b)"),
			rule([]query.Var{1, 0}, 0, 1, "c-"))},
		{"inverse", one(rule([]query.Var{0, 3}, 0, 1, "a-.b-", 1, 2, "(a-+b)", 2, 3, "(a-)*", 3, 4, "(a-.b+c)*"))},
		{"star-domain-dups", one(rule([]query.Var{0, 1}, 0, 1, "(a+a.b+c-.a+b-.a-)*"))},
		{"var-10", one(rule([]query.Var{9, 11}, 9, 10, "a", 10, 11, "b.c", 11, 12, "(d)*"))},
		{"vars-70", one(longChain)},
		{"self-loop", one(rule([]query.Var{0}, 0, 0, "a"))},
		{"self-loop-star", one(rule([]query.Var{0}, 0, 0, "(a.b)*"))},
		{"cycle-2", one(rule([]query.Var{0, 1}, 0, 1, "a", 0, 1, "a"))},
		{"cycle-4", one(rule([]query.Var{0, 2}, 0, 1, "a", 1, 2, "b", 0, 3, "c", 3, 2, "d-"))},
		{"star-shape", one(rule([]query.Var{0, 1, 2, 3}, 0, 1, "a", 0, 2, "b", 0, 3, "(c+d)"))},
		{"cypher-product-27", one(rule([]query.Var{0, 3}, 0, 1, "(a.b+c.d+e.f)", 1, 2, "(a.b+c.d+e.f)", 2, 3, "(a.b+c.d+e.f)"))},
		{"flags", flagged},
	}
}

// widenedConfigs are the pinned workloads the presets never reach:
// several rules, arities other than 2, p_r = 1, four disjuncts and
// zero-length paths, each edited onto a preset with all four shapes.
var widenedConfigs = []struct {
	name    string
	kind    string
	classes bool
	edit    func(*querygen.Config)
}{
	{"rules-1-3.arity-0-1", "con", false, func(c *querygen.Config) {
		c.Size.Rules, c.Arity = query.Interval{Min: 1, Max: 3}, query.Interval{Min: 0, Max: 1}
	}},
	{"rules-1-3.arity-0-1.classes", "con", true, func(c *querygen.Config) {
		c.Size.Rules, c.Arity = query.Interval{Min: 1, Max: 3}, query.Interval{Min: 0, Max: 1}
	}},
	{"arity-3-5", "con", false, func(c *querygen.Config) { c.Arity = query.Interval{Min: 3, Max: 5} }},
	{"rec-p1", "rec", false, func(c *querygen.Config) { c.RecursionProb = 1 }},
	{"rec-p1.classes", "rec", true, func(c *querygen.Config) { c.RecursionProb = 1 }},
	{"dis-4-4", "dis", false, func(c *querygen.Config) { c.Size.Disjuncts = query.Interval{Min: 4, Max: 4} }},
	{"dis-4-4.classes", "dis", true, func(c *querygen.Config) { c.Size.Disjuncts = query.Interval{Min: 4, Max: 4} }},
	{"len-0-3", "len", false, func(c *querygen.Config) { c.Size.Length = query.Interval{Min: 0, Max: 3} }},
	// Unblocked by clamping a plain query's arity over all its rules:
	// generation used to fail on the first query.
	{"rules-2-2.arity-3-3", "con", false, func(c *querygen.Config) {
		c.Size.Rules, c.Arity = query.Interval{Min: 2, Max: 2}, query.Interval{Min: 3, Max: 3}
	}},
	// Changed by drawing class steps from lengths of at least one: the
	// classed chains used to contain eps conjuncts.
	{"len-0-3.classes", "len", true, func(c *querygen.Config) { c.Size.Length = query.Interval{Min: 0, Max: 3} }},
}

// pinWidened adds the widenedConfigs rows (200 queries each through
// GenerateWith) and, per use case and preset, ten GenerateWithClass
// queries per class from a generator configured for Constant only, so
// Linear and Quadratic are classes missing from Config.Classes.
func pinWidened(t *testing.T, rows *pinRows) {
	t.Helper()
	shapes := []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	classes := []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
	for _, uc := range usecases.Names {
		gcfg, err := usecases.ByName(uc, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range widenedConfigs {
			cfg, err := usecases.Workload(wc.kind, gcfg, 22)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Count, cfg.Shapes = 200, shapes
			if wc.classes {
				cfg.Classes = classes
			}
			wc.edit(&cfg)
			name := fmt.Sprintf("wide.%s.%s", uc, wc.name)
			gen, err := querygen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := gen.GenerateWith(querygen.Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows.pinQueries(name, qs)
		}
		for _, kind := range usecases.WorkloadKinds {
			cfg, err := usecases.Workload(kind, gcfg, 22)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Classes = classes[:1]
			gen, err := querygen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var qs []*query.Query
			for _, class := range classes {
				for i := 0; i < 10; i++ {
					q, err := gen.GenerateWithClass(class)
					if err != nil {
						t.Fatalf("seq.%s.%s: %v", uc, kind, err)
					}
					qs = append(qs, q)
				}
			}
			rows.pinQueries(fmt.Sprintf("seq.%s.%s", uc, kind), qs)
		}
	}
}

// TestRenderedBytesPinned pins every byte the query half renders: the
// CRC32 of QueryFileContent and of the count-wrapped translation, per
// syntax, of 200-query workloads for every use case x preset x shape x
// with/without selectivity classes, plus hand-written edge cases and
// the widened configurations of pinWidened. The table was recorded
// before the append-style renderers replaced the string builders, so a
// renderer change that moves a byte shows up as a named row. Re-record
// with -update-pins.
func TestRenderedBytesPinned(t *testing.T) {
	var rows pinRows
	shapes := []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	classes := []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
	for _, uc := range usecases.Names {
		gcfg, err := usecases.ByName(uc, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range usecases.WorkloadKinds {
			for _, shape := range shapes {
				for _, withClasses := range []bool{false, true} {
					cfg, err := usecases.Workload(kind, gcfg, 22)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Count = 200
					cfg.Shapes = []query.Shape{shape}
					name := fmt.Sprintf("%s.%s.%s.plain", uc, kind, shape)
					if withClasses {
						cfg.Classes = classes
						name = fmt.Sprintf("%s.%s.%s.classes", uc, kind, shape)
					}
					gen, err := querygen.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					qs, err := gen.GenerateWith(querygen.Options{Parallelism: 2})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rows.pinQueries(name, qs)
				}
			}
		}
	}
	for _, ec := range edgeCaseQueries() {
		rows.pinQueries("edge."+ec.name, []*query.Query{ec.q})
	}
	pinWidened(t, &rows)

	golden := filepath.Join("testdata", "rendered.crc")
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, rows.b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(rows.b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("pin has %d rows, %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("rendered bytes moved: got %q, pinned %q", gotLines[i], wantLines[i])
		}
	}
}
