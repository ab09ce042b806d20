package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/querygen"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// The e2e conformance suite pins the server's core contract: every
// slice served over HTTP is byte-identical to what the batch sinks
// write for the same (use case, size, seed, shard width, encoding) —
// under concurrent requests, in arbitrary order, for all four paper
// use cases.
const (
	e2eNodes      = 260
	e2eSeed       = 5
	e2eShardNodes = 64
	e2eQueries    = 8
)

// e2eSpec is the job spec the suite registers for a use case.
func e2eSpec(uc string) *manifest.JobSpec {
	return &manifest.JobSpec{
		FormatVersion: manifest.JobSpecFormatVersion,
		Usecase:       uc,
		Nodes:         e2eNodes,
		Seed:          e2eSeed,
		ShardNodes:    e2eShardNodes,
		SpillCompress: "varint",
		Workload:      manifest.JobWorkloadSpec{Count: e2eQueries},
	}
}

// registerJob POSTs a spec and returns the job id.
func registerJob(t *testing.T, base string, spec *manifest.JobSpec) string {
	t.Helper()
	body, err := manifest.EncodeJobSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, msg)
	}
	var reply struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.JobID == "" {
		t.Fatal("register: empty job_id")
	}
	return reply.JobID
}

// fetchTask is one conformance check: a URL whose body must equal
// want exactly.
type fetchTask struct {
	name string
	url  string
	want []byte
}

// batchArtifacts materializes the batch ground truth for a use case in
// tmp: text and binary partitions, a varint CSR spill, and the
// per-syntax workload directory — all from ONE generation pass, the
// way a batch run writes them.
func batchArtifacts(t *testing.T, uc string) (textDir, binDir, spillDir, wlDir string) {
	t.Helper()
	tmp := t.TempDir()
	textDir = filepath.Join(tmp, "text")
	binDir = filepath.Join(tmp, "bin")
	spillDir = filepath.Join(tmp, "spill")
	wlDir = filepath.Join(tmp, "wl")

	gcfg, err := usecases.ByName(uc, e2eNodes)
	if err != nil {
		t.Fatal(err)
	}
	textSink, err := graphgen.NewPartitionedSink(textDir, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	binSink, err := graphgen.NewBinaryPartitionedSink(binDir, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	spillSink, err := graphgen.NewCSRSpillSinkWith(spillDir, gcfg, e2eShardNodes, graphgen.SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	opt := graphgen.Options{Seed: e2eSeed}
	if _, err := graphgen.Emit(gcfg, opt, graphgen.MultiEdgeSink(textSink, binSink, spillSink)); err != nil {
		t.Fatal(err)
	}

	wcfg, err := usecases.Workload("con", gcfg, e2eSeed)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Count = e2eQueries
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	wlSink, err := querygen.NewSyntaxDirSink(wlDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(querygen.Options{}, wlSink); err != nil {
		t.Fatal(err)
	}
	return textDir, binDir, spillDir, wlDir
}

// conformanceTasks builds the full fetch list for a registered job
// from its batch artifacts.
func conformanceTasks(t *testing.T, base, jobID, textDir, binDir, spillDir, wlDir string) []fetchTask {
	t.Helper()
	var tasks []fetchTask
	jobURL := base + "/v1/jobs/" + jobID

	// Whole-graph partition files, text and binary.
	for _, dir := range []struct {
		dir, enc string
	}{{textDir, "text"}, {binDir, "binary"}} {
		idx, err := graphgen.ReadPartitionIndex(dir.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range idx.Predicates {
			want, err := os.ReadFile(filepath.Join(dir.dir, p.File))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, fetchTask{
				name: fmt.Sprintf("%s/%s/all", dir.enc, p.Name),
				url:  jobURL + "/graph/" + url.PathEscape(p.Name) + "/all?enc=" + dir.enc,
				want: want,
			})
		}
	}

	// Every CSR shard, both directions.
	spill, err := graphgen.OpenCSRSpill(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spill.Manifest.Predicates {
		for _, d := range []struct {
			tag    string
			shards []graphgen.CSRShard
		}{{"f", p.Fwd}, {"b", p.Bwd}} {
			for r, sh := range d.shards {
				want, err := os.ReadFile(filepath.Join(spillDir, sh.File))
				if err != nil {
					t.Fatal(err)
				}
				tasks = append(tasks, fetchTask{
					name: fmt.Sprintf("csr/%s/%s/%d", p.Name, d.tag, r),
					url:  fmt.Sprintf("%s/graph/%s/%d?dir=%s", jobURL, url.PathEscape(p.Name), r, d.tag),
					want: want,
				})
			}
		}
	}

	// Workload windows: each query alone, in every syntax, plus the
	// full window as the concatenation of the per-query files.
	for _, syn := range translate.Syntaxes {
		var all []byte
		for i := 0; i < e2eQueries; i++ {
			want, err := os.ReadFile(filepath.Join(wlDir, fmt.Sprintf(manifest.QueryFilePattern, i, syn)))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, fetchTask{
				name: fmt.Sprintf("workload/%s/%d", syn, i),
				url:  fmt.Sprintf("%s/workload?from=%d&to=%d&syntax=%s", jobURL, i, i+1, syn),
				want: want,
			})
			all = append(all, want...)
		}
		tasks = append(tasks, fetchTask{
			name: fmt.Sprintf("workload/%s/full", syn),
			url:  fmt.Sprintf("%s/workload?from=0&to=%d&syntax=%s", jobURL, e2eQueries, syn),
			want: all,
		})
	}
	return tasks
}

// runTasks fetches every task over workers goroutines and compares
// bodies byte for byte.
func runTasks(t *testing.T, tasks []fetchTask, workers int) {
	t.Helper()
	ch := make(chan fetchTask)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range ch {
				resp, err := http.Get(task.url)
				if err != nil {
					t.Errorf("%s: %v", task.name, err)
					continue
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: reading body: %v", task.name, err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", task.name, resp.StatusCode, got)
					continue
				}
				if !bytes.Equal(got, task.want) {
					t.Errorf("%s: served %d bytes differ from batch %d bytes", task.name, len(got), len(task.want))
				}
			}
		}()
	}
	for _, task := range tasks {
		ch <- task
	}
	close(ch)
	wg.Wait()
}

// cacheBudgets are the two regimes the byte-equality tests run under:
// the default budget, where slices and columns stay resident, and one
// byte, where nothing is retained and every request re-emits its
// predicate. The bytes must not know the difference.
var cacheBudgets = []int64{0, 1}

// TestServeConformance is the tentpole contract test: for all four
// paper use cases, every graph shard and workload window served over
// HTTP — fetched concurrently, in arbitrary order — is byte-identical
// to the corresponding batch sink output.
func TestServeConformance(t *testing.T) {
	var servers []*Server
	var bases []string
	for _, budget := range cacheBudgets {
		srv := New(Options{Parallelism: 2, CacheBytes: budget})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers, bases = append(servers, srv), append(bases, ts.URL)
	}

	for _, uc := range usecases.Names {
		t.Run(uc, func(t *testing.T) {
			textDir, binDir, spillDir, wlDir := batchArtifacts(t, uc)
			for _, base := range bases {
				jobID := registerJob(t, base, e2eSpec(uc))
				tasks := conformanceTasks(t, base, jobID, textDir, binDir, spillDir, wlDir)
				if len(tasks) == 0 {
					t.Fatal("no conformance tasks built")
				}
				runTasks(t, tasks, 8)
			}
		})
	}

	for i, srv := range servers {
		stats := srv.Stats()
		if stats.Jobs != len(usecases.Names) {
			t.Errorf("budget %d: %d jobs, want %d", cacheBudgets[i], stats.Jobs, len(usecases.Names))
		}
		if stats.SlicesServed == 0 || stats.BytesServed == 0 {
			t.Errorf("budget %d: no slices recorded: %+v", cacheBudgets[i], stats)
		}
	}
	// Every graph slice asks for its predicate's columns exactly once,
	// so with nothing retained each one is an emission of its own
	// (bar those that joined a concurrent one), and with everything
	// retained a predicate is emitted once.
	kept, dropped := servers[0].Stats(), servers[1].Stats()
	if kept.Emissions >= dropped.Emissions || kept.ColumnHits <= dropped.ColumnHits {
		t.Errorf("emissions %d with the default budget, %d with nothing retained; column hits %d and %d",
			kept.Emissions, dropped.Emissions, kept.ColumnHits, dropped.ColumnHits)
	}
	if dropped.ColumnBytes != 0 || dropped.Cache.Bytes > 1 {
		t.Errorf("a one-byte budget retained %d column bytes and %d slice bytes", dropped.ColumnBytes, dropped.Cache.Bytes)
	}
	// Both cut paths are pinned against the batch bytes: resident
	// columns are indexed, and with nothing retained every cut filters.
	if kept.ColumnIndexes == 0 || dropped.ColumnIndexes != 0 {
		t.Errorf("cut indexes: %d with the default budget (want > 0), %d with nothing retained (want 0)",
			kept.ColumnIndexes, dropped.ColumnIndexes)
	}
}

// TestServeCompressionOverrides checks the compress= override: a CSR
// shard requested as none, deflate, or raw matches the batch spill
// written with that setting, independent of the job's default.
func TestServeCompressionOverrides(t *testing.T) {
	var jobURLs []string
	for _, budget := range cacheBudgets {
		ts := httptest.NewServer(New(Options{Parallelism: 2, CacheBytes: budget}))
		defer ts.Close()
		jobURLs = append(jobURLs, ts.URL+"/v1/jobs/"+registerJob(t, ts.URL, e2eSpec("bib")))
	}

	gcfg, err := usecases.ByName("bib", e2eNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []graphgen.SpillCompression{
		graphgen.SpillCompressNone, graphgen.SpillCompressDeflate, graphgen.SpillCompressRaw,
	} {
		dir := filepath.Join(t.TempDir(), comp.String())
		sink, err := graphgen.NewCSRSpillSinkWith(dir, gcfg, e2eShardNodes, comp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graphgen.Emit(gcfg, graphgen.Options{Seed: e2eSeed}, sink); err != nil {
			t.Fatal(err)
		}
		spill, err := graphgen.OpenCSRSpill(dir)
		if err != nil {
			t.Fatal(err)
		}
		var tasks []fetchTask
		for _, p := range spill.Manifest.Predicates {
			for r, sh := range p.Fwd {
				want, err := os.ReadFile(filepath.Join(dir, sh.File))
				if err != nil {
					t.Fatal(err)
				}
				for i, jobURL := range jobURLs {
					tasks = append(tasks, fetchTask{
						name: fmt.Sprintf("budget %d: csr/%s/%s/%d", cacheBudgets[i], comp, p.Name, r),
						url:  fmt.Sprintf("%s/graph/%s/%d?compress=%s", jobURL, url.PathEscape(p.Name), r, comp),
						want: want,
					})
				}
			}
		}
		runTasks(t, tasks, 4)
	}
}

// TestServeSweepEmitsEachPredicateOnce is the loader's access pattern:
// every range of every predicate as forward CSR, backward CSR and
// text. Each slice is a slice-cache miss, and all the slices of one
// predicate are cut from one emission.
func TestServeSweepEmitsEachPredicateOnce(t *testing.T) {
	srv := New(Options{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	jobURL := ts.URL + "/v1/jobs/" + registerJob(t, ts.URL, e2eSpec("sp"))

	var man JobManifest
	body, _ := mustGet(t, jobURL+"/manifest")
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for _, p := range man.Predicates {
		for _, query := range []string{"enc=csr&dir=f", "enc=csr&dir=b", "enc=text"} {
			for r := 0; r < man.Ranges; r++ {
				_, hdr := mustGet(t, fmt.Sprintf("%s/graph/%s/%d?%s", jobURL, url.PathEscape(p.Name), r, query))
				if hdr.Get("X-Gmark-Cache") != "miss" {
					t.Errorf("%s/%d?%s: X-Gmark-Cache %q on a first fetch", p.Name, r, query, hdr.Get("X-Gmark-Cache"))
				}
				fetched++
			}
		}
	}
	st := srv.Stats()
	if st.Emissions != int64(len(man.Predicates)) {
		t.Errorf("%d emissions for %d predicates", st.Emissions, len(man.Predicates))
	}
	if st.Cache.Misses != int64(fetched) || st.Cache.Hits != 0 {
		t.Errorf("%d slices fetched once each: %d slice misses, %d hits", fetched, st.Cache.Misses, st.Cache.Hits)
	}
	if st.ColumnHits != int64(fetched-len(man.Predicates)) {
		t.Errorf("%d column hits, want %d", st.ColumnHits, fetched-len(man.Predicates))
	}
	// Each predicate's second cut indexes its resident columns.
	if st.ColumnIndexes != int64(len(man.Predicates)) {
		t.Errorf("%d cut indexes for %d predicates", st.ColumnIndexes, len(man.Predicates))
	}
}

// TestServeReassembledCounts closes the loop on evaluation: a graph
// rebuilt purely from served text slices gives the same |Q(G)| as the
// in-memory generated graph, for every workload query.
func TestServeReassembledCounts(t *testing.T) {
	srv := New(Options{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, uc := range []string{"bib", "sp"} {
		t.Run(uc, func(t *testing.T) {
			jobID := registerJob(t, ts.URL, e2eSpec(uc))
			gcfg, err := usecases.ByName(uc, e2eNodes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphgen.Generate(gcfg, graphgen.Options{Seed: e2eSeed})
			if err != nil {
				t.Fatal(err)
			}

			typeNames, typeCounts, predNames := graphgen.Layout(gcfg)
			got, err := graph.New(typeNames, typeCounts, predNames)
			if err != nil {
				t.Fatal(err)
			}
			for pi, pred := range predNames {
				resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/graph/%s/all?enc=text",
					ts.URL, jobID, url.PathEscape(pred)))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d err %v", pred, resp.StatusCode, err)
				}
				srcs, dsts := parseTextEdges(t, body)
				if err := got.AddEdgeBatch(graph.PredID(pi), srcs, dsts); err != nil {
					t.Fatal(err)
				}
			}
			got.Freeze()

			wcfg, err := usecases.Workload("con", gcfg, e2eSeed)
			if err != nil {
				t.Fatal(err)
			}
			wcfg.Count = e2eQueries
			gen, err := querygen.New(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			queries, err := gen.GenerateWith(querygen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				wantN, err := eval.CountWith(want, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := eval.CountWith(got, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Errorf("query %d: count %d over reassembled slices, %d in memory", i, gotN, wantN)
				}
			}
		})
	}
}

// TestServeTextRangeSlices checks the text range view: the union of
// all per-range text slices is exactly the whole-graph edge multiset,
// and each line's source node lies inside its range.
func TestServeTextRangeSlices(t *testing.T) {
	srv := New(Options{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	jobID := registerJob(t, ts.URL, e2eSpec("lsn"))

	var man JobManifest
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&man)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if man.Ranges < 2 {
		t.Fatalf("fixture too small: %d ranges, want >= 2", man.Ranges)
	}

	pred := man.Predicates[0].Name
	get := func(rng string) []byte {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/graph/%s/%s?enc=text",
			ts.URL, jobID, url.PathEscape(pred), rng))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("range %s: status %d err %v", rng, resp.StatusCode, err)
		}
		return body
	}

	var union []string
	for r := 0; r < man.Ranges; r++ {
		body := get(fmt.Sprint(r))
		srcs, _ := parseTextEdges(t, body)
		lo, hi := int32(r*man.ShardNodes), int32((r+1)*man.ShardNodes)
		for _, s := range srcs {
			if s < lo || s >= hi {
				t.Fatalf("range %d: source %d outside [%d, %d)", r, s, lo, hi)
			}
		}
		union = append(union, nonEmptyLines(string(body))...)
	}
	all := nonEmptyLines(string(get("all")))
	sort.Strings(union)
	sort.Strings(all)
	if len(union) != len(all) {
		t.Fatalf("ranges hold %d edges, whole graph %d", len(union), len(all))
	}
	for i := range all {
		if union[i] != all[i] {
			t.Fatalf("edge multiset differs at %d: %q vs %q", i, union[i], all[i])
		}
	}
}

// TestServeCacheAndErrors covers the cache header contract and the
// error mapping of the read endpoints.
func TestServeCacheAndErrors(t *testing.T) {
	srv := New(Options{Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	jobID := registerJob(t, ts.URL, e2eSpec("wd"))

	var man JobManifest
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&man)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pred := man.Predicates[0].Name

	sliceURL := fmt.Sprintf("%s/v1/jobs/%s/graph/%s/0", ts.URL, jobID, url.PathEscape(pred))
	first, firstHdr := mustGet(t, sliceURL)
	second, secondHdr := mustGet(t, sliceURL)
	if !bytes.Equal(first, second) {
		t.Error("same slice URL served different bytes")
	}
	if firstHdr.Get("X-Gmark-Cache") != "miss" || secondHdr.Get("X-Gmark-Cache") != "hit" {
		t.Errorf("cache headers: first %q, second %q",
			firstHdr.Get("X-Gmark-Cache"), secondHdr.Get("X-Gmark-Cache"))
	}

	// Registering the identical spec again is idempotent.
	if again := registerJob(t, ts.URL, e2eSpec("wd")); again != jobID {
		t.Errorf("re-registration returned %s, want %s", again, jobID)
	}

	for _, tc := range []struct {
		name string
		url  string
		code int
	}{
		{"unknown job", ts.URL + "/v1/jobs/nope/manifest", http.StatusNotFound},
		{"unknown predicate", fmt.Sprintf("%s/v1/jobs/%s/graph/nope/0", ts.URL, jobID), http.StatusNotFound},
		{"range out of bounds", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/9999", ts.URL, jobID, url.PathEscape(pred)), http.StatusNotFound},
		{"bad range", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/xyz", ts.URL, jobID, url.PathEscape(pred)), http.StatusBadRequest},
		{"csr all", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/all", ts.URL, jobID, url.PathEscape(pred)), http.StatusBadRequest},
		{"binary range", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/0?enc=binary", ts.URL, jobID, url.PathEscape(pred)), http.StatusBadRequest},
		{"bad encoding", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/0?enc=yaml", ts.URL, jobID, url.PathEscape(pred)), http.StatusBadRequest},
		{"bad direction", fmt.Sprintf("%s/v1/jobs/%s/graph/%s/0?dir=x", ts.URL, jobID, url.PathEscape(pred)), http.StatusBadRequest},
		{"window too wide", fmt.Sprintf("%s/v1/jobs/%s/workload?from=0&to=999", ts.URL, jobID), http.StatusNotFound},
		{"window inverted", fmt.Sprintf("%s/v1/jobs/%s/workload?from=3&to=1", ts.URL, jobID), http.StatusNotFound},
		{"bad syntax", fmt.Sprintf("%s/v1/jobs/%s/workload?syntax=cobol", ts.URL, jobID), http.StatusBadRequest},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	// healthz and statsz respond.
	body, _ := mustGet(t, ts.URL+"/healthz")
	if !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %s", body)
	}
	var stats Stats
	body, _ = mustGet(t, ts.URL+"/statsz")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 || stats.Cache.Misses == 0 {
		t.Errorf("statsz cache counters not moving: %+v", stats.Cache)
	}
}

// mustGet fetches a URL expecting 200 and returns body and headers.
func mustGet(t *testing.T, u string) ([]byte, http.Header) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	return body, resp.Header
}

// parseTextEdges parses "src dst" lines.
func parseTextEdges(t *testing.T, body []byte) (srcs, dsts []graph.NodeID) {
	t.Helper()
	for _, line := range nonEmptyLines(string(body)) {
		var s, d int32
		if _, err := fmt.Sscanf(line, "%d %d", &s, &d); err != nil {
			t.Fatalf("bad edge line %q: %v", line, err)
		}
		srcs = append(srcs, s)
		dsts = append(dsts, d)
	}
	return srcs, dsts
}

// nonEmptyLines splits on newlines dropping the trailing empty line.
func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}
