package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"

	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/schema"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// job is one registered generation job: the client's spec plus
// everything resolved from it once at registration — graph
// configuration, node layout, workload generator, slice geometry.
// A job is immutable after resolution, so slice computations share it
// without locking.
type job struct {
	id   string
	spec manifest.JobSpec

	gcfg       *schema.GraphConfig
	typeNames  []string
	typeCounts []int
	predNames  []string
	// Per predicate, in predNames order: the schema-derived edge-count
	// expectation, and its rendering for X-Gmark-Expected-Edges.
	expectedEdges       []int
	expectedEdgesHeader []string
	numNodes            int
	shardNodes          int
	nRanges             int
	comp                graphgen.SpillCompression

	gen      *querygen.Generator // safe for concurrent use
	syntaxes []translate.Syntax
}

// jobID derives the deterministic job identifier from the spec's
// canonical encoding: equal specs get equal ids on every server, so
// registration is idempotent across clients and restarts.
func jobID(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:8])
}

// resolveJob turns a decoded spec into a servable job, or reports why
// it cannot be served (always a client error: the spec already passed
// structural validation).
func (s *Server) resolveJob(spec *manifest.JobSpec) (*job, *httpError) {
	if spec.Nodes > s.opt.MaxNodes {
		return nil, &httpError{http.StatusBadRequest,
			fmt.Sprintf("nodes %d exceeds the server limit %d", spec.Nodes, s.opt.MaxNodes)}
	}
	if spec.Workload.Count > s.opt.MaxQueries {
		return nil, &httpError{http.StatusBadRequest,
			fmt.Sprintf("workload count %d exceeds the server limit %d", spec.Workload.Count, s.opt.MaxQueries)}
	}

	gcfg, err := usecases.ByName(spec.Usecase, spec.Nodes)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}

	comp := graphgen.SpillCompressVarint
	if spec.SpillCompress != "" {
		comp, err = graphgen.ParseSpillCompression(spec.SpillCompress)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
	}

	kind := spec.Workload.Kind
	if kind == "" {
		kind = "con"
	}
	wcfg, err := usecases.Workload(kind, gcfg, spec.Seed)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	wcfg.Count = spec.Workload.Count
	if len(spec.Workload.Classes) > 0 {
		wcfg.Classes = nil
		for _, name := range spec.Workload.Classes {
			c, err := query.ParseSelectivityClass(name)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, err.Error()}
			}
			wcfg.Classes = append(wcfg.Classes, c)
		}
	}
	gen, err := querygen.New(wcfg)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}

	syntaxes := translate.Syntaxes
	if len(spec.Workload.Syntaxes) > 0 {
		syntaxes = nil
		for _, name := range spec.Workload.Syntaxes {
			syn, err := translate.ParseSyntax(name)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, err.Error()}
			}
			syntaxes = append(syntaxes, syn)
		}
	}

	j := &job{
		spec:     *spec,
		gcfg:     gcfg,
		comp:     comp,
		gen:      gen,
		syntaxes: syntaxes,
	}
	j.typeNames, j.typeCounts, j.predNames = graphgen.Layout(gcfg)
	for _, name := range j.predNames {
		n := graphgen.ExpectedPredicateEdges(gcfg, name)
		j.expectedEdges = append(j.expectedEdges, n)
		j.expectedEdgesHeader = append(j.expectedEdgesHeader, strconv.Itoa(n))
	}
	for _, c := range j.typeCounts {
		j.numNodes += c
	}
	j.shardNodes = spec.ShardNodes
	if j.shardNodes <= 0 {
		j.shardNodes = graphgen.DefaultCSRShardNodes
	}
	// Rounded up without forming numNodes + shardNodes - 1, which a
	// spec's shard_nodes near MaxInt would overflow.
	j.nRanges = j.numNodes / j.shardNodes
	if j.numNodes%j.shardNodes != 0 || j.nRanges == 0 {
		j.nRanges++ // an empty instance still has one (empty) range
	}
	return j, nil
}

// rangeBounds returns the node interval [lo, hi) of range r < nRanges,
// computed in int and clamped to the node count. Every cut — CSR, text
// and indexed — takes its bounds from here, so a shard width past
// NodeID's range cannot truncate one of them.
func (j *job) rangeBounds(r int) (lo, hi int) {
	lo = r * j.shardNodes // < numNodes for r < nRanges, or 0
	hi = j.numNodes
	if j.shardNodes < hi-lo {
		hi = lo + j.shardNodes
	}
	return lo, hi
}

// register resolves and stores a job, returning the job and whether it
// was newly created. Registration is idempotent: an already-known spec
// returns the existing job.
func (s *Server) register(data []byte) (*job, bool, *httpError) {
	spec, err := manifest.DecodeJobSpec(data)
	if err != nil {
		return nil, false, &httpError{http.StatusBadRequest, err.Error()}
	}
	canonical, err := manifest.EncodeJobSpec(spec)
	if err != nil {
		return nil, false, &httpError{http.StatusBadRequest, err.Error()}
	}
	id := jobID(canonical)

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return j, false, nil
	}
	s.mu.Unlock()

	// Resolve outside the lock; resolution touches no shared state.
	j, herr := s.resolveJob(spec)
	if herr != nil {
		return nil, false, herr
	}
	j.id = id

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[id]; ok {
		return existing, false, nil // lost a race with an equal spec
	}
	if len(s.jobs) >= s.opt.MaxJobs {
		return nil, false, &httpError{http.StatusTooManyRequests,
			fmt.Sprintf("job table full (%d jobs)", len(s.jobs))}
	}
	s.jobs[id] = j
	s.jobList = append(s.jobList, id)
	return j, true, nil
}

// lookup returns the registered job, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// JobManifest is the /v1/jobs/{id}/manifest payload: the registered
// spec plus everything the server resolved from it, so a client can
// enumerate the job's slices without guessing at defaults.
type JobManifest struct {
	// JobID is the deterministic job identifier.
	JobID string `json:"job_id"`
	// Spec echoes the registered spec (defaults not filled in — the
	// spec is the job's identity).
	Spec manifest.JobSpec `json:"spec"`
	// Nodes is the resolved total node count of the instance.
	Nodes int `json:"nodes"`
	// ShardNodes is the resolved node-range width of one graph slice.
	ShardNodes int `json:"shard_nodes"`
	// Ranges is the number of node ranges per predicate and direction.
	Ranges int `json:"ranges"`
	// Encoding is the job's default CSR slice encoding.
	Encoding string `json:"encoding"`
	// Types lists the node types with their resolved counts, in node-id
	// layout order.
	Types []graphgen.PartitionType `json:"types"`
	// Predicates lists the predicates with their expected edge counts.
	Predicates []JobPredicate `json:"predicates"`
	// Queries is the workload size.
	Queries int `json:"queries"`
	// Syntaxes lists the query syntaxes the job serves.
	Syntaxes []string `json:"syntaxes"`
}

// JobPredicate is one predicate entry of a JobManifest.
type JobPredicate struct {
	// Name is the predicate name from the schema.
	Name string `json:"name"`
	// ExpectedEdges is the schema-derived expectation of the
	// predicate's edge count (the actual count is deterministic but
	// only known after generation).
	ExpectedEdges int `json:"expected_edges"`
}

// manifestOf renders a job's manifest payload.
func manifestOf(j *job) JobManifest {
	m := JobManifest{
		JobID:      j.id,
		Spec:       j.spec,
		Nodes:      j.numNodes,
		ShardNodes: j.shardNodes,
		Ranges:     j.nRanges,
		Encoding:   j.comp.String(),
		Queries:    j.spec.Workload.Count,
	}
	for i, name := range j.typeNames {
		m.Types = append(m.Types, graphgen.PartitionType{Name: name, Count: j.typeCounts[i]})
	}
	for i, name := range j.predNames {
		m.Predicates = append(m.Predicates, JobPredicate{Name: name, ExpectedEdges: j.expectedEdges[i]})
	}
	for _, syn := range j.syntaxes {
		m.Syntaxes = append(m.Syntaxes, string(syn))
	}
	return m
}
