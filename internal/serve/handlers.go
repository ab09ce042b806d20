package serve

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"

	"gmark/internal/translate"
)

// httpError is a client-visible request failure: a status code in the
// 4xx range and a one-line message. Slice computation itself cannot
// fail on a validated job, so handlers map every parse/lookup problem
// to an httpError up front and treat later errors as 500s.
type httpError struct {
	code int
	msg  string
}

// writeError renders an httpError as a JSON body.
func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.code, map[string]string{"error": e.msg})
}

// maxSpecBytes bounds a POSTed job spec. Specs are a handful of
// scalar fields; a megabyte is already absurdly generous.
const maxSpecBytes = 1 << 20

// handleRegister implements POST /v1/jobs.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, &httpError{http.StatusBadRequest, fmt.Sprintf("reading job spec: %v", err)})
		return
	}
	j, created, herr := s.register(body)
	if herr != nil {
		writeError(w, herr)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{"job_id": j.id, "created": created})
}

// handleManifest implements GET /v1/jobs/{id}/manifest.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &httpError{http.StatusNotFound, "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, manifestOf(j))
}

// handleGraphSlice implements
// GET /v1/jobs/{id}/graph/{predicate}/{range}?enc=&dir=&compress=.
func (s *Server) handleGraphSlice(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &httpError{http.StatusNotFound, "unknown job"})
		return
	}
	g, herr := parseGraphSlice(j, r.PathValue("predicate"), r.PathValue("range"), r.URL.Query())
	if herr != nil {
		writeError(w, herr)
		return
	}
	key := sliceKey{jobID: j.id, kind: "graph", pred: g.pred, rng: g.rng, enc: g.enc}
	if g.enc == "csr" {
		key.dir = g.dir
		key.enc = g.comp.String()
	}
	data, cached, err := s.slices.get(key, func() ([]byte, error) {
		return s.computeGraphSlice(j, g)
	})
	if err != nil {
		writeError(w, &httpError{http.StatusInternalServerError, err.Error()})
		return
	}
	ct := "application/octet-stream"
	if g.enc == "text" {
		ct = "text/plain; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Gmark-Expected-Edges", j.expectedEdgesHeader[g.pred])
	setCacheHeader(w, cached)
	s.serveSlice(w, data)
}

// handleWorkload implements
// GET /v1/jobs/{id}/workload?from=&to=&syntax=.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, &httpError{http.StatusNotFound, "unknown job"})
		return
	}
	q := r.URL.Query()
	count := j.spec.Workload.Count
	bound := func(key string, unset int) (int, *httpError) {
		v := first(q, key)
		if v == "" {
			return unset, nil
		}
		n, err := parseUint(v)
		if errors.Is(err, errTooLarge) {
			return 0, &httpError{http.StatusNotFound, fmt.Sprintf("%s=%s outside the job's %d queries", key, v, count)}
		}
		if err != nil {
			return 0, &httpError{http.StatusBadRequest, fmt.Sprintf("bad %s: %v", key, err)}
		}
		return n, nil
	}
	from, fromErr := bound("from", 0)
	to, toErr := bound("to", count)
	if herr := cmp.Or(fromErr, toErr); herr != nil {
		writeError(w, herr)
		return
	}
	if from > to || to > count {
		writeError(w, &httpError{http.StatusNotFound,
			fmt.Sprintf("window [%d, %d) outside the job's %d queries", from, to, count)})
		return
	}
	syn := translate.SPARQL
	if len(j.syntaxes) > 0 {
		syn = j.syntaxes[0]
	}
	if v := first(q, "syntax"); v != "" {
		var err error
		if syn, err = translate.ParseSyntax(v); err != nil {
			writeError(w, &httpError{http.StatusBadRequest, err.Error()})
			return
		}
	}
	served := false
	for _, s := range j.syntaxes {
		if s == syn {
			served = true
			break
		}
	}
	if !served {
		writeError(w, &httpError{http.StatusBadRequest,
			fmt.Sprintf("syntax %q not among the job's syntaxes", syn)})
		return
	}
	key := sliceKey{jobID: j.id, kind: "workload", from: from, to: to, syn: string(syn)}
	data, cached, err := s.slices.get(key, func() ([]byte, error) {
		return s.computeWorkloadSlice(j, from, to, syn)
	})
	if err != nil {
		writeError(w, &httpError{http.StatusInternalServerError, err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Gmark-Queries", fmt.Sprint(to-from))
	setCacheHeader(w, cached)
	s.serveSlice(w, data)
}

// setCacheHeader records whether the payload came from the slice
// cache; tests and monitoring read it, clients may ignore it.
func setCacheHeader(w http.ResponseWriter, cached bool) {
	if cached {
		w.Header().Set("X-Gmark-Cache", "hit")
	} else {
		w.Header().Set("X-Gmark-Cache", "miss")
	}
}

// serveSlice writes a slice payload and bumps the served counters.
func (s *Server) serveSlice(w http.ResponseWriter, data []byte) {
	s.slicesServed.Add(1)
	s.bytesServed.Add(int64(len(data)))
	w.Write(data)
}
