package querygen

import (
	"math/rand"

	"gmark/internal/query"
	"gmark/internal/selectivity"
)

// Internals the external test package pins.

const (
	EmitBlock     = emitBlock
	RingDepth     = ringDepth
	MaxRelaxation = maxRelaxation
)

func (g *Generator) Estimator() *selectivity.Estimator     { return g.est }
func (g *Generator) SchemaGraph() *selectivity.SchemaGraph { return g.sg }
func (g *Generator) PathCounts() *selectivity.PathCounts   { return g.paths }
func (g *Generator) LengthWindow(relax int) query.Interval { return g.lengthWindow(relax) }
func (g *Generator) WorkerRNG() *rand.Rand                 { return g.newWorker().rng }
