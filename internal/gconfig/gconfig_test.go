package gconfig

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/usecases"
)

const sampleXML = `<?xml version="1.0"?>
<gmark>
  <graph nodes="1000">
    <types>
      <type name="user" proportion="0.6"/>
      <type name="room" fixed="20"/>
    </types>
    <predicates>
      <predicate name="follows" proportion="0.8"/>
      <predicate name="joined" proportion="0.2"/>
    </predicates>
    <constraints>
      <constraint source="user" target="user" predicate="follows">
        <in type="zipfian" s="1.8"/>
        <out type="zipfian" s="1.8"/>
      </constraint>
      <constraint source="user" target="room" predicate="joined">
        <out type="uniform" min="1" max="3"/>
      </constraint>
    </constraints>
  </graph>
  <workload count="10" arity-min="2" arity-max="2" recursion="0.25" seed="5">
    <shapes><shape>chain</shape><shape>star</shape></shapes>
    <selectivities><selectivity>linear</selectivity></selectivities>
    <size rules-min="1" rules-max="1" conjuncts-min="1" conjuncts-max="2"
          disjuncts-min="1" disjuncts-max="2" length-min="1" length-max="3"/>
  </workload>
</gmark>`

func TestParseGraphConfig(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := doc.GraphConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 1000 {
		t.Errorf("nodes = %d", cfg.Nodes)
	}
	if len(cfg.Schema.Types) != 2 || len(cfg.Schema.Predicates) != 2 || len(cfg.Schema.Constraints) != 2 {
		t.Fatalf("schema shape: %d types, %d preds, %d constraints",
			len(cfg.Schema.Types), len(cfg.Schema.Predicates), len(cfg.Schema.Constraints))
	}
	if cfg.TypeCount("room") != 20 {
		t.Errorf("room count = %d", cfg.TypeCount("room"))
	}
	c0 := cfg.Schema.Constraints[0]
	if c0.In.Kind != dist.Zipfian || c0.In.S != 1.8 {
		t.Errorf("in dist = %v", c0.In)
	}
	c1 := cfg.Schema.Constraints[1]
	if c1.In.Specified() {
		t.Error("missing <in> should be non-specified")
	}
	if c1.Out.Kind != dist.Uniform || c1.Out.Min != 1 || c1.Out.Max != 3 {
		t.Errorf("out dist = %v", c1.Out)
	}
}

func TestParseWorkloadConfig(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := doc.WorkloadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if wcfg.Count != 10 || wcfg.RecursionProb != 0.25 || wcfg.Seed != 5 {
		t.Errorf("workload scalars: %+v", wcfg)
	}
	if len(wcfg.Shapes) != 2 || wcfg.Shapes[1] != query.Star {
		t.Errorf("shapes = %v", wcfg.Shapes)
	}
	if len(wcfg.Classes) != 1 || wcfg.Classes[0] != query.Linear {
		t.Errorf("classes = %v", wcfg.Classes)
	}
	if wcfg.Size.Conjuncts.Max != 2 || wcfg.Size.Length.Max != 3 {
		t.Errorf("size = %v", wcfg.Size)
	}
	// The parsed workload must actually drive the generator.
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Errorf("generated %d queries", len(qs))
	}
}

func TestWorkloadConfigMissing(t *testing.T) {
	doc := &Document{}
	if _, err := doc.WorkloadConfig(); err == nil {
		t.Error("missing workload section should fail")
	}
}

func TestGraphConfigRoundTrip(t *testing.T) {
	orig := usecases.Bib(5000)
	doc := FromGraphConfig(orig)
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := doc2.GraphConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Nodes != orig.Nodes {
		t.Errorf("nodes = %d", cfg2.Nodes)
	}
	if len(cfg2.Schema.Types) != len(orig.Schema.Types) {
		t.Fatalf("types = %d", len(cfg2.Schema.Types))
	}
	for i := range orig.Schema.Types {
		if cfg2.Schema.Types[i] != orig.Schema.Types[i] {
			t.Errorf("type %d: %+v vs %+v", i, cfg2.Schema.Types[i], orig.Schema.Types[i])
		}
	}
	for i := range orig.Schema.Constraints {
		if cfg2.Schema.Constraints[i] != orig.Schema.Constraints[i] {
			t.Errorf("constraint %d: %+v vs %+v", i,
				cfg2.Schema.Constraints[i], orig.Schema.Constraints[i])
		}
	}
}

func TestAllUseCasesRoundTrip(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 1234)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, FromGraphConfig(cfg)); err != nil {
			t.Fatal(err)
		}
		doc, err := Parse(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg2, err := doc.GraphConfig()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cfg2.Schema.Constraints) != len(cfg.Schema.Constraints) {
			t.Errorf("%s: constraint count changed", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not xml at all`,
		`<gmark><graph nodes="10"><types><type name="a"/></types></graph></gmark>`,                            // neither proportion nor fixed
		`<gmark><graph nodes="10"><types><type name="a" proportion="0.5" fixed="3"/></types></graph></gmark>`, // both
	}
	for _, in := range cases {
		doc, err := Parse(strings.NewReader(in))
		if err != nil {
			continue // parse-level failure is fine
		}
		if _, err := doc.GraphConfig(); err == nil {
			t.Errorf("input should fail: %s", in)
		}
	}
}

// TestNonFiniteDistributionRejected pins the regression where
// encoding/xml's NaN and Inf passed every `< 0` check and crashed
// generation inside an emit worker: the configuration must fail to
// resolve instead.
func TestNonFiniteDistributionRejected(t *testing.T) {
	const zipf = `<in type="zipfian" s="1.8"/>`
	for _, in := range []string{
		`<in type="gaussian" mu="NaN" sigma="1"/>`,
		`<in type="gaussian" mu="+Inf" sigma="1"/>`,
		`<in type="gaussian" mu="3" sigma="Inf"/>`,
		`<in type="gaussian" mu="3" sigma="nan"/>`,
		`<in type="zipfian" s="NaN"/>`,
		`<in type="zipfian" s="Inf"/>`,
	} {
		doc, err := Parse(strings.NewReader(strings.Replace(sampleXML, zipf, in, 1)))
		if err != nil {
			t.Fatalf("%s: encoding/xml should read it: %v", in, err)
		}
		if _, err := doc.GraphConfig(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: GraphConfig() error = %v, want a non-finite parameter error", in, err)
		}
	}
}

// TestOversizedDistributionRejected pins the regression where integer
// and float parameters too large to generate passed validation and
// crashed generation: a uniform max of MaxInt overflowed the span and
// panicked, a Zipfian n of 2^40 died allocating its table, a Gaussian
// mu of 1e12 ran the process out of memory. The configuration must
// fail to resolve instead.
func TestOversizedDistributionRejected(t *testing.T) {
	const zipf = `<in type="zipfian" s="1.8"/>`
	for _, in := range []string{
		`<in type="uniform" min="0" max="9223372036854775807"/>`,
		`<in type="uniform" min="1" max="2147483648"/>`,
		`<in type="zipfian" s="1.8" n="1099511627776"/>`,
		`<in type="gaussian" mu="1e12" sigma="1"/>`,
		`<in type="gaussian" mu="3" sigma="1e12"/>`,
	} {
		// encoding/xml reads these into a 64-bit int, and GraphConfig
		// must refuse them; a 32-bit int cannot hold the integer ones,
		// so there Parse may refuse them first.
		doc, err := Parse(strings.NewReader(strings.Replace(sampleXML, zipf, in, 1)))
		if err == nil {
			_, err = doc.GraphConfig()
		} else if strconv.IntSize == 64 {
			t.Fatalf("%s: encoding/xml should read it: %v", in, err)
		}
		if err == nil {
			t.Errorf("%s: GraphConfig() accepted it", in)
		}
	}
}

// ReadQueries parses a workload produced by WriteQueries: the
// reference reader its round trip is checked against.
func ReadQueries(r io.Reader) ([]*query.Query, error) {
	var doc QueriesXML
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("gconfig: %w", err)
	}
	var out []*query.Query
	for qi, x := range doc.Queries {
		q := &query.Query{Relaxed: x.Relaxed}
		if x.Shape != "" {
			shape, err := query.ParseShape(x.Shape)
			if err != nil {
				return nil, fmt.Errorf("gconfig: query %d: %w", qi, err)
			}
			q.Shape = shape
		}
		if x.Class != "" {
			class, err := query.ParseSelectivityClass(x.Class)
			if err != nil {
				return nil, fmt.Errorf("gconfig: query %d: %w", qi, err)
			}
			q.Class = class
			q.HasClass = true
		}
		for _, rx := range x.Rules {
			r := query.Rule{}
			for _, v := range rx.Head {
				r.Head = append(r.Head, query.Var(v))
			}
			for _, cx := range rx.Body {
				e, err := regpath.Parse(cx.Expr)
				if err != nil {
					return nil, fmt.Errorf("gconfig: query %d: %w", qi, err)
				}
				r.Body = append(r.Body, query.Conjunct{
					Src: query.Var(cx.Src), Dst: query.Var(cx.Dst), Expr: e,
				})
			}
			q.Rules = append(q.Rules, r)
		}
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("gconfig: query %d: %w", qi, err)
		}
		out = append(out, q)
	}
	return out, nil
}

func TestQueriesXMLRoundTrip(t *testing.T) {
	gcfg := usecases.Bib(1000)
	wcfg, err := usecases.Workload("con", gcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Count = 6
	wcfg.Classes = []query.SelectivityClass{query.Linear}
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteQueries(&buf, qs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQueries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(qs) {
		t.Fatalf("round trip count %d vs %d", len(back), len(qs))
	}
	for i := range qs {
		if qs[i].String() != back[i].String() {
			t.Errorf("query %d:\n%s\nvs\n%s", i, qs[i], back[i])
		}
		if qs[i].HasClass != back[i].HasClass || qs[i].Class != back[i].Class {
			t.Errorf("query %d class metadata lost", i)
		}
		if qs[i].Shape != back[i].Shape {
			t.Errorf("query %d shape metadata lost", i)
		}
	}
}

func TestReadQueriesErrors(t *testing.T) {
	cases := []string{
		`garbage`,
		`<queries><query shape="blob"><rule><body><conjunct src="0" dst="1" expr="a"/></body></rule></query></queries>`,
		`<queries><query><rule><body><conjunct src="0" dst="1" expr="((("/></body></rule></query></queries>`,
		`<queries><query><rule><head><var>5</var></head><body><conjunct src="0" dst="1" expr="a"/></body></rule></query></queries>`,
	}
	for _, in := range cases {
		if _, err := ReadQueries(strings.NewReader(in)); err == nil {
			t.Errorf("input should fail: %s", in)
		}
	}
}
