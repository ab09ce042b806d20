package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteNTriples writes the graph in N-Triples form, the data output
// format mentioned in the paper's design principles (Section 1.1).
// Nodes are rendered as IRIs embedding their type name and global node
// id — the id the edge list carries; predicates as IRIs of their label.
func (g *Graph) WriteNTriples(w io.Writer, base string) error {
	if base == "" {
		base = "http://gmark.example.org/"
	}
	// A line is "<node IRI> <pred IRI> <node IRI> .": everything but the
	// two ids depends on the endpoints' types and the predicate only.
	nodeIRIs := make([]string, len(g.typeNames))
	for t, name := range g.typeNames {
		nodeIRIs[t] = "<" + base + "node/" + name + "/"
	}
	predIRIs := make([]string, len(g.predNames))
	for p, name := range g.predNames {
		predIRIs[p] = "> <" + base + "pred/" + name + "> "
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var err error
	g.Edges(func(e Edge) {
		if err != nil {
			return
		}
		// Built in the writer's free space: Write then finds the bytes
		// already in place.
		b := append(bw.AvailableBuffer(), nodeIRIs[g.TypeOf(e.Src)]...)
		b = appendNodeID(b, e.Src)
		b = append(b, predIRIs[e.Pred]...)
		b = append(b, nodeIRIs[g.TypeOf(e.Dst)]...)
		b = appendNodeID(b, e.Dst)
		_, err = bw.Write(append(b, "> .\n"...))
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list format graphgen.WriterSink writes:
// the "# types" and "# predicates" header lines, then one "src pred
// dst" line per edge. Any other "#" line is ignored, so a file that
// also carries an edge count in its first line still loads.
//
//lint:ignore unused test oracle shared by the graph and graphgen tests, which parse WriterSink output with it
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var g *Graph
	var typeNames []string
	var typeCounts []int
	var predNames []string
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "types":
				for _, f := range fields[1:] {
					// The count follows the last colon: a prefixed
					// name such as "ex:researcher" keeps its own.
					i := strings.LastIndexByte(f, ':')
					if i < 0 {
						return nil, fmt.Errorf("graph: line %d: bad type entry %q", line, f)
					}
					name, countStr := f[:i], f[i+1:]
					c, err := strconv.Atoi(countStr)
					if err != nil {
						return nil, fmt.Errorf("graph: line %d: bad type count %q", line, countStr)
					}
					typeNames = append(typeNames, name)
					typeCounts = append(typeCounts, c)
				}
			case "predicates":
				predNames = append(predNames, fields[1:]...)
			}
			continue
		}
		if g == nil {
			if typeNames == nil || predNames == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			var err error
			g, err = New(typeNames, typeCounts, predNames)
			if err != nil {
				return nil, err
			}
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'src pred dst', got %q", line, text)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", line, fields[0])
		}
		dst, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q", line, fields[2])
		}
		p := g.PredIndex(fields[1])
		if p < 0 {
			return nil, fmt.Errorf("graph: line %d: unknown predicate %q", line, fields[1])
		}
		if src < 0 || src >= g.NumNodes() || dst < 0 || dst >= g.NumNodes() {
			return nil, fmt.Errorf("graph: line %d: node id out of range", line)
		}
		g.AddEdge(int32(src), p, int32(dst))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		if typeNames == nil || predNames == nil {
			return nil, fmt.Errorf("graph: empty input")
		}
		var err error
		g, err = New(typeNames, typeCounts, predNames)
		if err != nil {
			return nil, err
		}
	}
	g.Freeze()
	return g, nil
}
