// Package gconfig implements gMark's declarative XML configuration
// format ("specifying all constraints as an input gMark graph
// configuration can be easily done via a few lines of XML",
// Section 3.1) and the XML output format for generated query workloads
// (Fig. 1: "Query workload file (UCRPQs as XML)").
package gconfig

import (
	"encoding/xml"
	"fmt"
	"io"

	"gmark/internal/dist"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/schema"
)

// Document is the root element of a gMark configuration file.
type Document struct {
	XMLName  xml.Name     `xml:"gmark"`
	Graph    GraphXML     `xml:"graph"`
	Workload *WorkloadXML `xml:"workload,omitempty"`
}

// GraphXML mirrors schema.GraphConfig.
type GraphXML struct {
	Nodes       int             `xml:"nodes,attr"`
	Types       []TypeXML       `xml:"types>type"`
	Predicates  []PredicateXML  `xml:"predicates>predicate"`
	Constraints []ConstraintXML `xml:"constraints>constraint"`
}

// TypeXML is one node type; exactly one of proportion/fixed is set.
type TypeXML struct {
	Name       string   `xml:"name,attr"`
	Proportion *float64 `xml:"proportion,attr,omitempty"`
	Fixed      *int     `xml:"fixed,attr,omitempty"`
}

// PredicateXML is one edge predicate.
type PredicateXML struct {
	Name       string   `xml:"name,attr"`
	Proportion *float64 `xml:"proportion,attr,omitempty"`
	Fixed      *int     `xml:"fixed,attr,omitempty"`
}

// ConstraintXML is one eta entry.
type ConstraintXML struct {
	Source    string           `xml:"source,attr"`
	Target    string           `xml:"target,attr"`
	Predicate string           `xml:"predicate,attr"`
	In        *DistributionXML `xml:"in"`
	Out       *DistributionXML `xml:"out"`
}

// DistributionXML is one degree distribution with its parameters.
type DistributionXML struct {
	Type  string   `xml:"type,attr"`
	Min   *int     `xml:"min,attr,omitempty"`
	Max   *int     `xml:"max,attr,omitempty"`
	Mu    *float64 `xml:"mu,attr,omitempty"`
	Sigma *float64 `xml:"sigma,attr,omitempty"`
	S     *float64 `xml:"s,attr,omitempty"`
	N     *int     `xml:"n,attr,omitempty"`
}

// WorkloadXML mirrors querygen.Config (Definition 3.5).
type WorkloadXML struct {
	Count         int      `xml:"count,attr"`
	ArityMin      int      `xml:"arity-min,attr"`
	ArityMax      int      `xml:"arity-max,attr"`
	RecursionProb float64  `xml:"recursion,attr"`
	Seed          int64    `xml:"seed,attr"`
	Shapes        []string `xml:"shapes>shape"`
	Selectivities []string `xml:"selectivities>selectivity"`
	Size          SizeXML  `xml:"size"`
}

// SizeXML is the query size tuple t.
type SizeXML struct {
	RulesMin     int `xml:"rules-min,attr"`
	RulesMax     int `xml:"rules-max,attr"`
	ConjunctsMin int `xml:"conjuncts-min,attr"`
	ConjunctsMax int `xml:"conjuncts-max,attr"`
	DisjunctsMin int `xml:"disjuncts-min,attr"`
	DisjunctsMax int `xml:"disjuncts-max,attr"`
	LengthMin    int `xml:"length-min,attr"`
	LengthMax    int `xml:"length-max,attr"`
}

// Parse reads a configuration document.
func Parse(r io.Reader) (*Document, error) {
	var doc Document
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("gconfig: %w", err)
	}
	return &doc, nil
}

// Write renders a configuration document with indentation.
func Write(w io.Writer, doc *Document) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// GraphConfig converts the XML form into a validated schema form.
func (d *Document) GraphConfig() (*schema.GraphConfig, error) {
	cfg := &schema.GraphConfig{Nodes: d.Graph.Nodes}
	for _, t := range d.Graph.Types {
		occ, err := occurrenceOf(t.Proportion, t.Fixed, "type "+t.Name)
		if err != nil {
			return nil, err
		}
		cfg.Schema.Types = append(cfg.Schema.Types, schema.NodeType{Name: t.Name, Occurrence: occ})
	}
	for _, p := range d.Graph.Predicates {
		occ, err := occurrenceOf(p.Proportion, p.Fixed, "predicate "+p.Name)
		if err != nil {
			return nil, err
		}
		cfg.Schema.Predicates = append(cfg.Schema.Predicates, schema.Predicate{Name: p.Name, Occurrence: occ})
	}
	for _, c := range d.Graph.Constraints {
		in, err := distOf(c.In)
		if err != nil {
			return nil, fmt.Errorf("gconfig: constraint %s->%s in: %w", c.Source, c.Target, err)
		}
		out, err := distOf(c.Out)
		if err != nil {
			return nil, fmt.Errorf("gconfig: constraint %s->%s out: %w", c.Source, c.Target, err)
		}
		cfg.Schema.Constraints = append(cfg.Schema.Constraints, schema.EdgeConstraint{
			Source: c.Source, Target: c.Target, Predicate: c.Predicate, In: in, Out: out,
		})
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// WorkloadConfig converts the XML workload section; the graph section
// supplies the coupled graph configuration.
func (d *Document) WorkloadConfig() (querygen.Config, error) {
	if d.Workload == nil {
		return querygen.Config{}, fmt.Errorf("gconfig: document has no workload section")
	}
	g, err := d.GraphConfig()
	if err != nil {
		return querygen.Config{}, err
	}
	w := d.Workload
	cfg := querygen.Config{
		Graph:         g,
		Count:         w.Count,
		Arity:         query.Interval{Min: w.ArityMin, Max: w.ArityMax},
		RecursionProb: w.RecursionProb,
		Seed:          w.Seed,
		Size: query.Size{
			Rules:     query.Interval{Min: w.Size.RulesMin, Max: w.Size.RulesMax},
			Conjuncts: query.Interval{Min: w.Size.ConjunctsMin, Max: w.Size.ConjunctsMax},
			Disjuncts: query.Interval{Min: w.Size.DisjunctsMin, Max: w.Size.DisjunctsMax},
			Length:    query.Interval{Min: w.Size.LengthMin, Max: w.Size.LengthMax},
		},
	}
	for _, s := range w.Shapes {
		shape, err := query.ParseShape(s)
		if err != nil {
			return querygen.Config{}, err
		}
		cfg.Shapes = append(cfg.Shapes, shape)
	}
	for _, s := range w.Selectivities {
		class, err := query.ParseSelectivityClass(s)
		if err != nil {
			return querygen.Config{}, err
		}
		cfg.Classes = append(cfg.Classes, class)
	}
	if err := cfg.Validate(); err != nil {
		return querygen.Config{}, err
	}
	return cfg, nil
}

// FromGraphConfig renders a schema configuration back into XML form.
func FromGraphConfig(cfg *schema.GraphConfig) *Document {
	doc := &Document{Graph: GraphXML{Nodes: cfg.Nodes}}
	for _, t := range cfg.Schema.Types {
		x := TypeXML{Name: t.Name}
		if t.Occurrence.Proportional {
			p := t.Occurrence.Proportion
			x.Proportion = &p
		} else {
			f := t.Occurrence.Fixed
			x.Fixed = &f
		}
		doc.Graph.Types = append(doc.Graph.Types, x)
	}
	for _, p := range cfg.Schema.Predicates {
		x := PredicateXML{Name: p.Name}
		if p.Occurrence.Proportional {
			pr := p.Occurrence.Proportion
			x.Proportion = &pr
		} else {
			f := p.Occurrence.Fixed
			x.Fixed = &f
		}
		doc.Graph.Predicates = append(doc.Graph.Predicates, x)
	}
	for _, c := range cfg.Schema.Constraints {
		doc.Graph.Constraints = append(doc.Graph.Constraints, ConstraintXML{
			Source: c.Source, Target: c.Target, Predicate: c.Predicate,
			In:  distXML(c.In),
			Out: distXML(c.Out),
		})
	}
	return doc
}

func occurrenceOf(prop *float64, fixed *int, what string) (schema.Occurrence, error) {
	switch {
	case prop != nil && fixed != nil:
		return schema.Occurrence{}, fmt.Errorf("gconfig: %s has both proportion and fixed", what)
	case prop != nil:
		return schema.Proportion(*prop), nil
	case fixed != nil:
		return schema.Fixed(*fixed), nil
	default:
		return schema.Occurrence{}, fmt.Errorf("gconfig: %s has neither proportion nor fixed", what)
	}
}

func distOf(x *DistributionXML) (dist.Distribution, error) {
	if x == nil {
		return dist.Unspecified(), nil
	}
	kind, err := dist.ParseKind(x.Type)
	if err != nil {
		return dist.Distribution{}, err
	}
	d := dist.Distribution{Kind: kind}
	if x.Min != nil {
		d.Min = *x.Min
	}
	if x.Max != nil {
		d.Max = *x.Max
	}
	if x.Mu != nil {
		d.Mu = *x.Mu
	}
	if x.Sigma != nil {
		d.Sigma = *x.Sigma
	}
	if x.S != nil {
		d.S = *x.S
	}
	if x.N != nil {
		d.N = *x.N
	}
	return d, d.Validate()
}

func distXML(d dist.Distribution) *DistributionXML {
	if !d.Specified() {
		return nil
	}
	x := &DistributionXML{Type: d.Kind.String()}
	switch d.Kind {
	case dist.Uniform:
		min, max := d.Min, d.Max
		x.Min, x.Max = &min, &max
	case dist.Gaussian:
		mu, sigma := d.Mu, d.Sigma
		x.Mu, x.Sigma = &mu, &sigma
	case dist.Zipfian:
		s := d.S
		x.S = &s
		if d.N > 0 {
			n := d.N
			x.N = &n
		}
	}
	return x
}

// --- Query workload XML output ---

// QueriesXML is the root of a generated workload file.
type QueriesXML struct {
	XMLName xml.Name   `xml:"queries"`
	Queries []QueryXML `xml:"query"`
}

// QueryXML is one generated UCRPQ.
type QueryXML struct {
	Shape   string    `xml:"shape,attr"`
	Class   string    `xml:"class,attr,omitempty"`
	Relaxed bool      `xml:"relaxed,attr,omitempty"`
	Rules   []RuleXML `xml:"rule"`
}

// RuleXML is one query rule.
type RuleXML struct {
	Head []int         `xml:"head>var"`
	Body []ConjunctXML `xml:"body>conjunct"`
}

// ConjunctXML is one conjunct; Expr uses the regpath text syntax.
type ConjunctXML struct {
	Src  int    `xml:"src,attr"`
	Dst  int    `xml:"dst,attr"`
	Expr string `xml:"expr,attr"`
}

// WriteQueries renders a workload as XML.
func WriteQueries(w io.Writer, queries []*query.Query) error {
	doc := QueriesXML{}
	for _, q := range queries {
		x := QueryXML{Shape: q.Shape.String(), Relaxed: q.Relaxed}
		if q.HasClass {
			x.Class = q.Class.String()
		}
		for _, r := range q.Rules {
			rx := RuleXML{}
			for _, v := range r.Head {
				rx.Head = append(rx.Head, int(v))
			}
			for _, c := range r.Body {
				rx.Body = append(rx.Body, ConjunctXML{
					Src: int(c.Src), Dst: int(c.Dst), Expr: c.Expr.String(),
				})
			}
			x.Rules = append(x.Rules, rx)
		}
		doc.Queries = append(doc.Queries, x)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
