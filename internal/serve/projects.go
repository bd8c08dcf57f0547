package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"perfvar/internal/baseline"
	"perfvar/internal/compare"
	"perfvar/internal/store"
	"perfvar/internal/trace"
)

// The run-history API tracks a project's performance over time: PUT
// registers a project with a baseline analysis, POST .../runs compares a
// new trace against that baseline and returns a CI-consumable pass/fail
// verdict judged against a regression budget. Records persist in the
// disk store (when configured) under project-namespaced keys, so
// baselines survive daemon restarts.

// projectKeyPrefix namespaces project records in the disk store.
const projectKeyPrefix = "project:"

// maxAlignIterations caps how long an iteration series the alignment DP
// will accept over HTTP: beyond it the 2-bit traceback matrix alone
// costs n·m/4 bytes (25 MiB at 10k×10k), so a hostile pair of long
// traces must 400 instead of allocating.
const maxAlignIterations = 10000

// maxRunHistory bounds the per-project run records retained.
const maxRunHistory = 32

// projectNameRE admits names safe for URLs, logs, and store keys.
var projectNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// runRecord is one archived regression verdict.
type runRecord struct {
	Time             string  `json:"time"`
	Verdict          string  `json:"verdict"`
	SOSDeltaPct      float64 `json:"sos_delta_pct"`
	MaxIterDeltaPct  float64 `json:"max_iter_delta_pct"`
	MPIFractionDelta float64 `json:"mpi_fraction_delta"`
	AlignmentCost    float64 `json:"alignment_cost"`
	Matched          int     `json:"matched"`
}

// projectRecord is the persisted state of one project.
type projectRecord struct {
	Name string `json:"name"`
	// BudgetPct overrides the server's -sos-budget-pct for this project;
	// 0 means "use the server default".
	BudgetPct float64            `json:"budget_pct,omitempty"`
	Baseline  compare.RunSummary `json:"baseline"`
	Runs      []runRecord        `json:"runs,omitempty"`
}

// clone returns a deep copy safe to marshal outside the registry lock.
func (p *projectRecord) clone() projectRecord {
	c := *p
	c.Baseline.IterMeanSOS = append([]float64(nil), p.Baseline.IterMeanSOS...)
	c.Runs = append([]runRecord(nil), p.Runs...)
	return c
}

// projectRegistry is the in-memory index of project records, mirrored to
// the disk store when one is configured (nil st = memory-only: records
// die with the process, which matches a daemon run without -store-dir).
type projectRegistry struct {
	mu  sync.Mutex
	st  *store.Store
	log *slog.Logger
	m   map[string]*projectRecord
}

// newProjectRegistry builds the registry, reloading persisted records
// from st. Undecodable records (stale schema) are dropped with a
// warning rather than failing startup.
func newProjectRegistry(st *store.Store, log *slog.Logger) *projectRegistry {
	r := &projectRegistry{st: st, log: log, m: make(map[string]*projectRecord)}
	if st == nil {
		return r
	}
	for _, key := range st.Keys(projectKeyPrefix) {
		data, ok := st.Get(key)
		if !ok {
			continue
		}
		var rec projectRecord
		if err := json.Unmarshal(data, &rec); err != nil || !projectNameRE.MatchString(rec.Name) {
			log.Warn("dropping undecodable project record", "key", key, "err", err)
			st.Delete(key)
			continue
		}
		r.m[rec.Name] = &rec
	}
	return r
}

// persistLocked mirrors rec to the disk store. Callers hold r.mu.
func (r *projectRegistry) persistLocked(rec *projectRecord) {
	if r.st == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		r.log.Warn("project record marshal failed", "project", rec.Name, "err", err)
		return
	}
	if err := r.st.Put(projectKeyPrefix+rec.Name, data); err != nil {
		r.log.Warn("project record persist failed", "project", rec.Name, "err", err)
	}
}

// put registers or replaces a project record.
func (r *projectRegistry) put(rec projectRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[rec.Name] = &rec
	r.persistLocked(&rec)
}

// get returns a deep copy of the named record.
func (r *projectRegistry) get(name string) (projectRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.m[name]
	if !ok {
		return projectRecord{}, false
	}
	return rec.clone(), true
}

// delete removes the named record from memory and disk; it reports
// whether the record existed.
func (r *projectRegistry) delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; !ok {
		return false
	}
	delete(r.m, name)
	if r.st != nil {
		r.st.Delete(projectKeyPrefix + name)
	}
	return true
}

// appendRun archives one verdict on the named project (newest last,
// bounded by maxRunHistory) and persists the updated record.
func (r *projectRegistry) appendRun(name string, run runRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.m[name]
	if !ok {
		return
	}
	rec.Runs = append(rec.Runs, run)
	if len(rec.Runs) > maxRunHistory {
		rec.Runs = rec.Runs[len(rec.Runs)-maxRunHistory:]
	}
	r.persistLocked(rec)
}

// names returns the registered project names, sorted.
func (r *projectRegistry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// parseBudget reads an optional ?budget= override: a finite percentage
// in (0, 1000]. Floats carry no allocation-size risk (the boundedparam
// analyzer restricts ints only), but NaN/Inf must not become a verdict
// threshold.
func parseBudget(r *http.Request) (float64, error) {
	v := r.URL.Query().Get("budget")
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 || f > 1000 {
		return 0, fmt.Errorf("%w: budget=%q (want a percentage in (0, 1000])", errBadParam, v)
	}
	return f, nil
}

// readUpload drains a bounded request body.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := readBody(w, r, s.cfg.MaxUploadBytes, "upload")
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty body (expected a trace archive)", errBadParam)
	}
	return data, nil
}

// summarizeUpload runs the pipeline over an uploaded archive (through
// the result cache and disk tier) and digests it into the RunSummary the
// regression comparison consumes. The flat-profile MPI share needs the
// event streams, so the archive is materialized once here regardless of
// which engine analyzed the pipeline pass.
func (s *Server) summarizeUpload(ctx context.Context, w http.ResponseWriter, data []byte, p analysisParams) (compare.RunSummary, error) {
	res, err := s.pipeline(ctx, w, data, p)
	if err != nil {
		return compare.RunSummary{}, err
	}
	if res.Matrix.Iterations() > maxAlignIterations {
		return compare.RunSummary{}, fmt.Errorf("%w: run has %d iterations (alignment accepts at most %d)",
			errBadParam, res.Matrix.Iterations(), maxAlignIterations)
	}
	tr, err := trace.ReadAnyLimit(bytes.NewReader(data), s.cfg.MaxUploadBytes)
	if err != nil {
		return compare.RunSummary{}, err
	}
	profiles, err := baseline.RankProfilesContext(ctx, tr)
	if err != nil {
		return compare.RunSummary{}, err
	}
	return compare.Summarize(res.Matrix, baseline.MPIFraction(tr, profiles)), nil
}

// budgetFor resolves the effective regression budget of a project:
// its own override, else the server default.
func (s *Server) budgetFor(rec projectRecord) float64 {
	if rec.BudgetPct > 0 {
		return rec.BudgetPct
	}
	return s.cfg.SOSBudgetPct
}

func (s *Server) handleProjectList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name      string  `json:"name"`
		BudgetPct float64 `json:"budget_pct"`
		Runs      int     `json:"runs"`
	}
	out := []entry{}
	for _, name := range s.projects.names() {
		rec, ok := s.projects.get(name)
		if !ok {
			continue
		}
		out = append(out, entry{Name: rec.Name, BudgetPct: s.budgetFor(rec), Runs: len(rec.Runs)})
	}
	writeJSON(w, map[string]any{"projects": out})
}

// handleProjectPut registers (or replaces) a project: the request body
// is the baseline trace archive, analyzed and digested into the stored
// baseline summary. An optional ?budget= sets a per-project regression
// budget.
func (s *Server) handleProjectPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !projectNameRE.MatchString(name) {
		writeError(w, http.StatusBadRequest, "bad_param",
			fmt.Sprintf("invalid project name %q (want [A-Za-z0-9][A-Za-z0-9._-]{0,63})", name))
		return
	}
	p, err := parseAnalysisParams(r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	data, err := s.readUpload(w, r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	sum, err := s.summarizeUpload(ctx, w, data, p)
	if err != nil {
		s.httpError(w, r, err)
		return
	}

	rec := projectRecord{Name: name, BudgetPct: budget, Baseline: sum}
	s.projects.put(rec)
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{
		"name":       name,
		"budget_pct": s.budgetFor(rec),
		"baseline":   sum,
	})
}

func (s *Server) handleProjectGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.projects.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("project %q is not registered", r.PathValue("name")))
		return
	}
	writeJSON(w, map[string]any{
		"name":       rec.Name,
		"budget_pct": s.budgetFor(rec),
		"baseline":   rec.Baseline,
		"runs":       rec.Runs,
	})
}

func (s *Server) handleProjectDelete(w http.ResponseWriter, r *http.Request) {
	if !s.projects.delete(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("project %q is not registered", r.PathValue("name")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleProjectRun is the CI entry point: the request body is a fresh
// trace archive, compared iteration-by-iteration against the project's
// stored baseline. The response carries the full per-iteration delta and
// a verdict — "pass" when the total-SOS regression stays within the
// budget, "fail" otherwise — so a pipeline can gate on
// `jq -e '.verdict == "pass"'`.
func (s *Server) handleProjectRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.projects.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("project %q is not registered", name))
		return
	}
	p, err := parseAnalysisParams(r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	data, err := s.readUpload(w, r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	sum, err := s.summarizeUpload(ctx, w, data, p)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	delta, err := compare.DeltaContext(ctx, rec.Baseline, sum)
	if err != nil {
		s.httpError(w, r, err)
		return
	}

	budget := s.budgetFor(rec)
	verdict := "pass"
	if delta.SOSDeltaPct > budget {
		verdict = "fail"
	}
	s.projects.appendRun(name, runRecord{
		Time:             time.Now().UTC().Format(time.RFC3339),
		Verdict:          verdict,
		SOSDeltaPct:      delta.SOSDeltaPct,
		MaxIterDeltaPct:  delta.MaxIterDeltaPct,
		MPIFractionDelta: delta.MPIFractionDelta,
		AlignmentCost:    delta.AlignmentCost,
		Matched:          delta.Matched,
	})
	writeJSON(w, map[string]any{
		"project":    name,
		"verdict":    verdict,
		"budget_pct": budget,
		"run":        sum,
		"delta":      delta,
	})
}
