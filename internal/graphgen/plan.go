package graphgen

import (
	"fmt"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/prng"
	"gmark/internal/schema"
)

// plan is the output of the planning stage: the resolved node layout,
// one constraintPlan per eta entry, and the flattened shard list that
// the emission stage schedules. Planning is cheap and deterministic;
// all randomness is deferred to the emission stage, which draws from
// the per-shard sub-seeds fixed here.
type plan struct {
	typeNames  []string
	typeCounts []int
	predNames  []string
	totalNodes int

	constraints []constraintPlan

	// shards is the unit of parallel work, ordered by (constraint
	// index, shard index). The emission stage flushes completed shards
	// to the sink strictly in this order, so the sink observes one
	// canonical edge sequence for a given (configuration, seed,
	// ShardEdges) triple at any worker count.
	shards []shardPlan

	opt Options

	// emitted counts the edges delivered by the last run; it is only
	// touched from the single flusher goroutine.
	emitted int

	// chunks is the last run's render-chunk free list; nil when the
	// sink took batches.
	chunks *chunkPool
}

// constraintPlan is one eta entry with its node-id ranges resolved and
// its own RNG sub-seed derived only from (Options.Seed, index).
type constraintPlan struct {
	index int
	c     schema.EdgeConstraint

	pred           graph.PredID
	srcOff, trgOff int32 // global node-id offset of the source/target type
	nSrc, nTrg     int   // node counts of the source/target type

	// out and in are the constraint's distributions compiled once at
	// plan time, nil for a non-specified side; samplers are immutable,
	// so every shard shares them.
	out, in dist.Sampler

	seed   int64
	shards int // number of emission shards this constraint was split into
}

// compileSide builds the sampler of one side's distribution, nil when
// it is non-specified.
func compileSide(d dist.Distribution) (dist.Sampler, error) {
	if !d.Specified() {
		return nil, nil
	}
	return d.NewSampler()
}

// shardPlan is one independently emittable unit of work: a contiguous
// sub-range of one constraint's source and target nodes, with its own
// RNG sub-seed. A single-shard constraint covers its full ranges and
// keeps the constraint's own seed, which makes it byte-identical to
// the historical unsharded emission; multi-shard constraints derive
// shard seeds from (constraint seed, shard index) so occurrence-vector
// drawing and pairing are independently seeded per shard and shards
// can run on any worker in any order.
type shardPlan struct {
	cp    *constraintPlan
	index int // shard index within the constraint

	// Node sub-ranges, 0-based within the source/target type. When a
	// side's distribution is non-specified the shard still records the
	// full range of that side: its partner occurrences are paired with
	// uniformly random nodes over the whole type, exactly as in the
	// unsharded algorithm.
	srcLo, srcHi int
	trgLo, trgHi int

	seed int64
}

// defaultShardEdges is the auto shard granularity (Options.ShardEdges
// = 0): small enough that a single dominant constraint of a few
// million edges fans out across every core of a typical machine, large
// enough that per-shard scheduling cost stays negligible. It is a
// fixed constant — never derived from GOMAXPROCS — so shard boundaries
// (and therefore output bytes) are identical on every machine and at
// every worker count.
const defaultShardEdges = 128 << 10

// newPlan validates the configuration and resolves every constraint
// and its shards.
func newPlan(cfg *schema.GraphConfig, opt Options) (*plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &cfg.Schema

	p := &plan{
		typeNames:  make([]string, len(s.Types)),
		typeCounts: make([]int, len(s.Types)),
		predNames:  make([]string, len(s.Predicates)),
		opt:        opt,
	}
	typeOffset := make(map[string]int32, len(s.Types))
	typeCount := make(map[string]int, len(s.Types))
	var off int32
	for i, t := range s.Types {
		c := t.Occurrence.Count(cfg.Nodes)
		p.typeNames[i] = t.Name
		p.typeCounts[i] = c
		typeOffset[t.Name] = off
		typeCount[t.Name] = c
		off += int32(c)
	}
	p.totalNodes = int(off)
	for i, pr := range s.Predicates {
		p.predNames[i] = pr.Name
	}

	p.constraints = make([]constraintPlan, len(s.Constraints))
	for i, c := range s.Constraints {
		cp := &p.constraints[i]
		*cp = constraintPlan{
			index:  i,
			c:      c,
			pred:   graph.PredID(s.PredicateIndex(c.Predicate)),
			srcOff: typeOffset[c.Source],
			trgOff: typeOffset[c.Target],
			nSrc:   typeCount[c.Source],
			nTrg:   typeCount[c.Target],
			seed:   prng.SubSeed(opt.Seed, i),
		}
		// cfg.Validate has checked both distributions already.
		var err error
		if cp.out, err = compileSide(c.Out); err == nil {
			cp.in, err = compileSide(c.In)
		}
		if err != nil {
			return nil, fmt.Errorf("graphgen: eta(%s,%s,%s): %w", c.Source, c.Target, c.Predicate, err)
		}
	}
	for i := range p.constraints {
		p.appendShards(&p.constraints[i])
	}
	return p, nil
}

// appendShards splits one constraint into its emission shards and
// appends them to the plan's flattened shard list.
func (p *plan) appendShards(cp *constraintPlan) {
	n := cp.shardCount(p.opt)
	cp.shards = n
	if n == 1 {
		p.shards = append(p.shards, shardPlan{
			cp: cp, index: 0,
			srcLo: 0, srcHi: cp.nSrc,
			trgLo: 0, trgHi: cp.nTrg,
			seed: cp.seed,
		})
		return
	}
	hasOut, hasIn := cp.c.Out.Specified(), cp.c.In.Specified()
	// When both sides are specified, source stripe i pairs with target
	// stripe (i+rot) mod n rather than its aligned stripe. Aligned
	// pairing would make every sharded constraint block-diagonal —
	// for a self-loop constraint the graph would decompose into n
	// disconnected node-range components. With rot coprime to n the
	// stripe digraph is a single n-cycle instead: every stripe reaches
	// every other within n hops, node-id locality no longer predicts
	// neighbors, and per-constraint rotations differ so compositions
	// of constraints mix further. The rotation depends only on the
	// constraint seed and n, so determinism at any worker count is
	// untouched.
	rot := 0
	if hasOut && hasIn {
		rot = shardRotation(cp.seed, n)
	}
	for i := 0; i < n; i++ {
		sp := shardPlan{
			cp: cp, index: i,
			srcLo: 0, srcHi: cp.nSrc,
			trgLo: 0, trgHi: cp.nTrg,
			seed: prng.SubSeed(cp.seed, i),
		}
		// The specified side(s) are range-partitioned; a non-specified
		// side keeps its full range (uniform random pairing spans the
		// whole type). Boundaries are the exact i*n/S lattice, so the
		// sub-ranges tile the type with no gaps or overlaps.
		if hasOut {
			sp.srcLo, sp.srcHi = i*cp.nSrc/n, (i+1)*cp.nSrc/n
		}
		if hasIn {
			j := (i + rot) % n
			sp.trgLo, sp.trgHi = j*cp.nTrg/n, (j+1)*cp.nTrg/n
		}
		p.shards = append(p.shards, sp)
	}
}

// shardRotation derives the target-stripe rotation of a sharded
// constraint: a value in [1, n) coprime to n, seeded from the
// constraint so different constraints rotate differently.
func shardRotation(seed int64, n int) int {
	if n <= 1 {
		return 0
	}
	r := 1 + int(uint64(prng.SubSeed(seed, n))%uint64(n-1)) // in [1, n)
	for gcd(r, n) != 1 {
		r++
		if r == n {
			r = 1
		}
	}
	return r
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// shardCount resolves how many emission shards a constraint is split
// into under the options. The count depends only on the configuration
// and Options.ShardEdges — never on Parallelism or the machine — which
// is what keeps sharded output deterministic at any worker count.
func (cp *constraintPlan) shardCount(opt Options) int {
	target := opt.ShardEdges
	if target < 0 {
		return 1
	}
	if target == 0 {
		target = defaultShardEdges
	}
	expect := int(expectedEdges(cp.c, cp.nSrc, cp.nTrg))
	if expect <= target || cp.nSrc == 0 || cp.nTrg == 0 {
		return 1
	}
	n := (expect + target - 1) / target
	// Every shard must cover at least one node of each partitioned
	// side, or proportional splitting would produce empty sub-ranges
	// and silently drop the paired side's occurrences.
	lim := cp.nSrc
	hasOut, hasIn := cp.c.Out.Specified(), cp.c.In.Specified()
	switch {
	case hasOut && hasIn:
		lim = min(cp.nSrc, cp.nTrg)
	case hasIn:
		lim = cp.nTrg
	}
	if n > lim {
		n = lim
	}
	if n < 1 {
		n = 1
	}
	return n
}

// expectedEdges estimates the number of edges one constraint emits
// over nSrc source and nTrg target nodes: the min-side expectation of
// Fig. 5, the smaller of nSrc·E[out] and nTrg·E[in] when both sides
// are specified, else the specified side's. It sizes a constraint's
// shard count and the slice server's per-predicate estimate.
func expectedEdges(c schema.EdgeConstraint, nSrc, nTrg int) float64 {
	out := float64(nSrc) * c.Out.Mean()
	in := float64(nTrg) * c.In.Mean()
	switch {
	case c.Out.Specified() && c.In.Specified():
		return min(out, in)
	case c.Out.Specified():
		return out
	default:
		return in
	}
}

// ExpectedPredicateEdges estimates the number of edges Emit/Generate
// will produce for one predicate of a configuration: the summed
// min-side expectation of the constraints labeled pred. The slice
// server surfaces it alongside each served slice as a size estimate,
// so clients can plan without fetching.
func ExpectedPredicateEdges(cfg *schema.GraphConfig, pred string) int {
	total := 0.0
	for _, c := range cfg.Schema.Constraints {
		if c.Predicate == pred {
			total += expectedEdges(c, cfg.TypeCount(c.Source), cfg.TypeCount(c.Target))
		}
	}
	return int(total)
}

// wrap attaches the shard's eta identity (and sub-range, when the
// constraint was split) to an emission error.
func (sp *shardPlan) wrap(err error) error {
	if err == nil {
		return nil
	}
	cp := sp.cp
	if cp.shards > 1 {
		return fmt.Errorf("graphgen: eta(%s,%s,%s) shard %d/%d: %w",
			cp.c.Source, cp.c.Target, cp.c.Predicate, sp.index, cp.shards, err)
	}
	return fmt.Errorf("graphgen: eta(%s,%s,%s): %w", cp.c.Source, cp.c.Target, cp.c.Predicate, err)
}
