package querygen

import (
	"fmt"

	"gmark/internal/prng"
	"gmark/internal/query"
)

// Options controls workload emission.
type Options struct {
	// Parallelism is the number of query-emission workers. Zero or less
	// selects runtime.GOMAXPROCS(0) (fanout.Workers); one generates
	// every block on the caller's goroutine. For a fixed Config.Seed
	// the emitted workload is identical for any value.
	Parallelism int
}

// queryUnit is one independently emittable unit of work: a single
// query with its workload-level assignment pre-drawn and its own RNG
// sub-seed. Because every unit owns a seed derived only from
// (Config.Seed, index), units can be emitted on any worker in any
// order and still produce identical queries.
type queryUnit struct {
	index int
	seed  int64

	shape    query.Shape
	hasClass bool
	class    query.SelectivityClass
	// arity is the projection arity of a plain query (ignored when
	// hasClass: the class machinery fixes arity at 2).
	arity    int
	numRules int
}

// planWorkload resolves the configuration into the per-query units of
// the window [from, to). All workload-level randomness — the (shape,
// class, arity, rule count) assignment of every query — is drawn here
// from a single RNG on a dedicated sub-stream of the seed, so emission
// workers never contend for a shared stream; everything below the
// assignment draws from the unit's own sub-seed. A unit's assignment
// depends on the draws of every unit before it, so the whole prefix
// [0, to) is drawn, but only the window's units are kept. Planning is
// cheap (no schema walks) and its result depends only on (Config,
// Seed).
func (g *Generator) planWorkload(from, to int) []queryUnit {
	rng := prng.New(prng.SubSeed(g.cfg.Seed, 0))
	units := make([]queryUnit, 0, to-from)
	for i := range to {
		u := queryUnit{index: i}
		u.shape = pickShapeFrom(rng, g.cfg.Shapes)
		u.numRules = drawInterval(rng, g.cfg.Size.Rules)
		if len(g.cfg.Classes) > 0 && u.shape == query.Chain {
			u.hasClass = true
			u.class = g.cfg.Classes[rng.Intn(len(g.cfg.Classes))]
		} else {
			u.arity = drawInterval(rng, g.cfg.Arity)
		}
		if i >= from {
			u.seed = prng.SubSeed(g.cfg.Seed, i+1)
			units = append(units, u)
		}
	}
	return units
}

// newWorker returns an emission worker whose RNG emitUnit re-seeds per
// unit. Re-seeding yields the identical stream to a fresh
// rand.New(rand.NewSource(seed)) without allocating a new 4.9 KB source
// per query. The source is prng's lazy one: a query draws a few dozen
// values, and pays to seed only the register words those draws meet.
func (g *Generator) newWorker() *worker {
	return &worker{g: g, rng: prng.NewLazy(0)}
}

// emitUnit generates one planned query from the unit's sub-seed. It
// touches only read-only generator state besides the worker's own RNG,
// so distinct workers may run it concurrently.
func (w *worker) emitUnit(u queryUnit) (*query.Query, error) {
	w.rng.Seed(u.seed)
	var q *query.Query
	var err error
	if u.hasClass {
		q, err = w.classQuery(u.class, u.numRules)
	} else {
		q, err = w.plainQuery(u.shape, u.arity, u.numRules)
	}
	if err != nil {
		return nil, fmt.Errorf("querygen: query %d: %w", u.index, err)
	}
	return q, nil
}
