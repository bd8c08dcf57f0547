// Package serve turns the perfvar analysis pipeline into an HTTP
// service: perfvard accepts PVT traces (uploads or files from a
// whitelisted directory) and serves the full pipeline — flat profile,
// dominant function, SOS matrix, imbalance statistics, causality
// attribution, lint findings, and rendered artifacts — as JSON and
// image endpoints.
//
// The serving core is a content-addressed result cache (SHA-256 of the
// trace bytes plus the canonical analysis options) with LRU eviction
// and singleflight deduplication, so concurrent identical requests
// compute once and repeated ones not at all. Requests carry deadlines:
// the per-request timeout and client disconnects propagate through
// context.Context into the analysis worker pool, which stops claiming
// work between per-rank items. /metrics exposes request counts,
// latencies, cache hit ratio, and pool occupancy; /debug/pprof is
// mounted for live profiling.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfvar"
	"perfvar/internal/callstack"
	"perfvar/internal/ingest"
	"perfvar/internal/lint"
	"perfvar/internal/store"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
)

// Config tunes the daemon. The zero value serves uploads only, with
// defaults suitable for a laptop.
type Config struct {
	// TraceDir is the whitelisted directory of trace archives served by
	// name under /api/v1/traces. Empty disables directory serving.
	TraceDir string
	// MaxUploadBytes bounds POSTed trace archives and doubles as the
	// decoder's byte cap (default 64 MiB).
	MaxUploadBytes int64
	// RequestTimeout bounds each analysis request end to end
	// (default 60s).
	RequestTimeout time.Duration
	// CacheEntries is the LRU result-cache capacity (default 128).
	CacheEntries int
	// CacheBytes bounds the result cache's approximate memory, measured
	// at each entry's actual stored size (rendered views exactly, results
	// by their retained structures; source-archive length only as the
	// fallback for opaque kinds; default 512 MiB). Entries are evicted
	// LRU-first when either bound is exceeded.
	CacheBytes int64
	// StoreDir, when set, roots the disk result store: computed pipeline
	// results and rendered views are persisted there and survive daemon
	// restarts (served with X-Perfvar-Cache: disk). Empty disables the
	// disk tier.
	StoreDir string
	// StoreBytes bounds the disk store (default 4 GiB). Least-recently-
	// used entries are garbage-collected beyond it.
	StoreBytes int64
	// SOSBudgetPct is the default regression budget for project run
	// verdicts: a run whose total SOS-time exceeds its baseline's by more
	// than this percentage fails (default 10; projects may override).
	SOSBudgetPct float64
	// SessionDir roots live-session spools (per-rank event files of open
	// sessions). Empty means a temporary directory removed on Close.
	SessionDir string
	// MaxSessions bounds concurrently open live sessions (default 64).
	MaxSessions int
	// MaxFrameBytes bounds one live frame's payload (default 4 MiB).
	MaxFrameBytes int64
	// MaxSessionBytes bounds a live session's cumulative payload bytes.
	// Defaults to MaxUploadBytes, so every finalizable session yields an
	// archive the analysis pipeline accepts.
	MaxSessionBytes int64
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 512 << 20
	}
	if c.StoreBytes <= 0 {
		c.StoreBytes = 4 << 30
	}
	if c.SOSBudgetPct <= 0 {
		c.SOSBudgetPct = 10
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = 4 << 20
	}
	if c.MaxSessionBytes <= 0 {
		c.MaxSessionBytes = c.MaxUploadBytes
	}
	if c.Logger == nil {
		// go 1.22 compatible discard logger (slog.DiscardHandler is 1.24+).
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return c
}

// Server is the perfvard HTTP daemon core. Create with New, mount via
// Handler, and Close when done to cancel any still-running analyses.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	flight   *flightGroup
	store    *store.Store // disk tier; nil when Config.StoreDir is empty
	projects *projectRegistry
	sessions *ingest.Manager
	met      *metrics
	log      *slog.Logger

	// base is the root context of all computations; Close cancels it so
	// in-flight analyses stop claiming pool workers after shutdown.
	base       context.Context
	cancelBase context.CancelFunc
}

// New builds a Server. TraceDir, when set, must exist.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.TraceDir != "" {
		fi, err := os.Stat(cfg.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("serve: trace dir: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("serve: trace dir %s is not a directory", cfg.TraceDir)
		}
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		cache:      newLRU(cfg.CacheEntries, cfg.CacheBytes),
		flight:     newFlightGroup(),
		met:        &metrics{},
		log:        cfg.Logger,
		base:       base,
		cancelBase: cancel,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreBytes)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
	}
	s.projects = newProjectRegistry(s.store, cfg.Logger)
	mgr, err := ingest.NewManager(ingest.Config{
		SpoolDir:        cfg.SessionDir,
		MaxSessions:     cfg.MaxSessions,
		MaxFrameBytes:   cfg.MaxFrameBytes,
		MaxSessionBytes: cfg.MaxSessionBytes,
		Logger:          cfg.Logger,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.sessions = mgr
	s.routes()
	return s, nil
}

// Close drains live ingestion — every still-open session is finalized
// and run through the analysis pipeline, so its result lands in the
// cache (and the disk store, when configured) exactly as a graceful
// DELETE would have left it — then cancels the server's base context,
// stopping any analyses still running after shutdown.
func (s *Server) Close() {
	s.drainSessions()
	s.cancelBase()
	s.sessions.Close()
}

// Handler returns the daemon's root handler with logging and metrics
// middleware applied.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Metrics returns a point-in-time snapshot of cache effectiveness —
// exported for tests and the smoke job.
func (s *Server) Metrics() (hits, misses, computed int64) {
	return s.met.cacheHits.Load(), s.met.cacheMisses.Load(), s.met.computed.Load()
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.writeTo(w, s.cache, s.store, s.sessions)
	})
	s.mux.HandleFunc("GET /api/v1/traces", s.handleList)
	s.mux.HandleFunc("GET /api/v1/traces/{name}/{view}", s.handleTraceView)
	s.mux.HandleFunc("POST /api/v1/analyze", s.handleUpload)

	s.mux.HandleFunc("POST /api/v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /api/v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/frames", s.handleSessionFrames)
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/alerts", s.handleSessionAlerts)
	s.mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleSessionFinalize)

	s.mux.HandleFunc("GET /api/v1/projects", s.handleProjectList)
	s.mux.HandleFunc("PUT /api/v1/projects/{name}", s.handleProjectPut)
	s.mux.HandleFunc("GET /api/v1/projects/{name}", s.handleProjectGet)
	s.mux.HandleFunc("DELETE /api/v1/projects/{name}", s.handleProjectDelete)
	s.mux.HandleFunc("POST /api/v1/projects/{name}/runs", s.handleProjectRun)

	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// statusRecorder captures the response status for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.met.inflight.Add(1)
		next.ServeHTTP(rec, r)
		s.met.inflight.Add(-1)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		s.met.observeRequest(rec.status, dur)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", dur.Milliseconds(),
			"cache", rec.Header().Get("X-Perfvar-Cache"),
			"remote", r.RemoteAddr,
		)
	})
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response was ready.
const statusClientClosedRequest = 499

// httpError maps pipeline failures onto status codes: hostile or broken
// inputs are the client's fault (4xx), never a daemon crash (5xx). Every
// non-2xx response carries the JSON error envelope
// {"error":{"code","message"}}, so clients branch on the stable code
// instead of parsing message text.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, err error) {
	var status int
	var code string
	switch {
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		s.met.cancelled.Add(1)
		status, code = statusClientClosedRequest, "client_closed_request"
	case errors.Is(err, context.Canceled):
		// The computation was cancelled out from under a live request —
		// server shutdown, not anything the client sent.
		status, code = http.StatusServiceUnavailable, "shutdown"
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, ingest.ErrUnknownSession):
		status, code = http.StatusNotFound, "unknown_session"
	case errors.Is(err, ingest.ErrFinalized):
		status, code = http.StatusConflict, "finalized"
	case errors.Is(err, ingest.ErrOutOfOrder):
		status, code = http.StatusUnprocessableEntity, "out_of_order"
	case errors.Is(err, ingest.ErrSessionLimit):
		status, code = http.StatusTooManyRequests, "session_limit"
	case errors.Is(err, ingest.ErrBadFrame):
		status, code = http.StatusBadRequest, "bad_frame"
	case errors.Is(err, ingest.ErrSpec):
		status, code = http.StatusBadRequest, "bad_param"
	case errors.Is(err, trace.ErrTooLarge):
		s.met.rejectedSize.Add(1)
		status, code = http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, trace.ErrFormat):
		status, code = http.StatusBadRequest, "bad_archive"
	case errors.Is(err, os.ErrNotExist):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, errBadParam):
		status, code = http.StatusBadRequest, "bad_param"
	default:
		// Analysis-level failures (no dominant candidate, sync-classified
		// region, structurally broken trace): the archive parsed but
		// cannot be analyzed as requested.
		status, code = http.StatusUnprocessableEntity, "unanalyzable"
	}
	writeError(w, status, code, err.Error())
}

// writeError emits the daemon's uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": message},
	})
}

var errBadParam = errors.New("serve: bad query parameter")

// Query-driven allocation bounds: a hostile parameter must never pick an
// allocation size. Unbounded, ?width=100000&height=100000 asks for a
// ~40 GB RGBA image and ?hbins=2000000000 for a multi-GB bin slice —
// either one OOM-kills the daemon with a single unauthenticated request.
const (
	maxRenderDim = 8192  // pixels per image axis
	maxBinsParam = 10000 // histogram bins / timeline bins / top-k cap
)

// boundedInt parses q[name] into dst, rejecting values outside [lo, hi]
// with errBadParam (→ 400). Absent parameters leave dst untouched.
func boundedInt(q url.Values, name string, dst *int, lo, hi int) error {
	v := q.Get(name)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		return fmt.Errorf("%w: %s=%q (want integer in [%d, %d])", errBadParam, name, v, lo, hi)
	}
	*dst = n
	return nil
}

// analysisParams are the cacheable analysis options parsed from a
// request's query string (rendering options are parsed separately and
// deliberately excluded from the cache key).
type analysisParams struct {
	opts perfvar.Options
	key  string
}

func parseAnalysisParams(r *http.Request) (analysisParams, error) {
	q := r.URL.Query()
	var p analysisParams
	p.opts.DominantFunction = q.Get("dominant")
	err := boundedInt(q, "multiplier", &p.opts.Multiplier, 0, 1_000_000)
	if err == nil {
		err = boundedInt(q, "topk", &p.opts.TopK, 0, maxBinsParam)
	}
	if err == nil {
		// -1 disables the MPI-share timeline (any negative does; one
		// canonical spelling keeps the cache key stable).
		err = boundedInt(q, "bins", &p.opts.MPIFractionBins, -1, maxBinsParam)
	}
	if v := q.Get("zthreshold"); v != "" && err == nil {
		f, convErr := strconv.ParseFloat(v, 64)
		if convErr != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			err = fmt.Errorf("%w: zthreshold=%q (want a finite number)", errBadParam, v)
		} else {
			p.opts.ZThreshold = f
		}
	}
	if v := q.Get("periteration"); v != "" && err == nil {
		b, convErr := strconv.ParseBool(v)
		if convErr != nil {
			err = fmt.Errorf("%w: periteration=%q", errBadParam, v)
		} else {
			p.opts.PerIteration = b
		}
	}
	if v := q.Get("sync"); v != "" {
		p.opts.SyncPrefixes = strings.Split(v, ",")
	}
	if err != nil {
		return analysisParams{}, err
	}
	p.key = paramsKey(p.opts)
	return p, nil
}

// paramsKey canonicalizes analysis options into the cache-key fragment
// shared by every path that analyzes with them — query-driven requests
// and the shutdown drain must produce the same key for the same options,
// or a drained session's result would never be found again.
func paramsKey(opts perfvar.Options) string {
	return fmt.Sprintf("d=%s;m=%d;z=%g;k=%d;b=%d;pi=%t;sp=%s",
		opts.DominantFunction, opts.Multiplier, opts.ZThreshold,
		opts.TopK, opts.MPIFractionBins, opts.PerIteration,
		strings.Join(opts.SyncPrefixes, ","))
}

// defaultAnalysisParams are the options an un-parameterized request
// gets — what the shutdown drain analyzes finalized sessions under.
func defaultAnalysisParams() analysisParams {
	var opts perfvar.Options
	return analysisParams{opts: opts, key: paramsKey(opts)}
}

func parseRenderOptions(r *http.Request) (vis.RenderOptions, error) {
	q := r.URL.Query()
	var o vis.RenderOptions
	err := boundedInt(q, "width", &o.Width, 0, maxRenderDim)
	if err == nil {
		err = boundedInt(q, "height", &o.Height, 0, maxRenderDim)
	}
	if v := q.Get("labels"); v != "" && err == nil {
		b, convErr := strconv.ParseBool(v)
		if convErr != nil {
			err = fmt.Errorf("%w: labels=%q", errBadParam, v)
		} else {
			o.Labels = b
		}
	}
	return o, err
}

// cacheKey is the content address of one computation: the SHA-256 of
// the raw archive bytes, the computation kind, and the canonical
// analysis options. Names, paths, and upload timestamps never enter the
// key — byte-identical traces share results no matter how they arrive.
func cacheKey(sum [sha256.Size]byte, kind, optsKey string) string {
	return fmt.Sprintf("%x|%s|%s", sum, kind, optsKey)
}

// setCacheHeader tags the response with the cache tier that answered.
// w is nil for inner lookups (a view rendering resolving its pipeline
// result), whose tier must not overwrite the outer request's tag.
func setCacheHeader(w http.ResponseWriter, state string) {
	if w != nil {
		w.Header().Set("X-Perfvar-Cache", state)
	}
}

// compute resolves key through the memory tier → disk tier →
// singleflight → fn, recording metrics and tagging w with
// X-Perfvar-Cache: hit, disk, miss, or shared. size is the source
// archive length, used as the fallback cache charge for kinds whose
// stored size is unknowable (see valueBytes). codec, when non-nil,
// admits the kind to the disk store: a disk hit is decoded and promoted
// into the memory tier, and fresh computations are persisted after
// caching.
func (s *Server) compute(ctx context.Context, w http.ResponseWriter, key string, size int64, codec *diskCodec, fn func(ctx context.Context) (any, error)) (any, error) {
	if v, ok := s.cache.get(key); ok {
		s.met.cacheHits.Add(1)
		setCacheHeader(w, "hit")
		return v, nil
	}
	if s.store != nil && codec != nil {
		if data, ok := s.store.Get(key); ok {
			v, err := codec.decode(data)
			if err == nil {
				s.met.diskHits.Add(1)
				s.cache.put(key, v, valueBytes(v, size))
				setCacheHeader(w, "disk")
				return v, nil
			}
			// Undecodable under the current build (stale gob shape):
			// drop it and recompute rather than erroring the request.
			s.log.Warn("disk entry undecodable, dropping", "key", key, "err", err)
			s.store.Delete(key)
		}
	}
	v, err, shared := s.flight.do(ctx, key,
		func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(s.base, s.cfg.RequestTimeout)
		},
		func(cctx context.Context) (any, error) {
			s.met.computed.Add(1)
			v, err := fn(cctx)
			if err == nil {
				s.cache.put(key, v, valueBytes(v, size))
				if s.store != nil && codec != nil {
					if data, encErr := codec.encode(v); encErr == nil {
						if putErr := s.store.Put(key, data); putErr != nil {
							s.log.Warn("disk store put failed", "key", key, "err", putErr)
						}
					} else {
						s.log.Warn("disk store encode failed", "key", key, "err", encErr)
					}
				}
			}
			return v, err
		})
	// Joining an in-flight computation is deduplication working, not a
	// miss — counting it as one would understate the hit ratio exactly
	// when concurrency is highest.
	if shared {
		s.met.dedupedShared.Add(1)
		setCacheHeader(w, "shared")
	} else {
		s.met.cacheMisses.Add(1)
		setCacheHeader(w, "miss")
	}
	return v, err
}

// pipeline returns the cached-or-computed perfvar.Result for an archive.
// The bytes are analyzed straight from the archive: PVTR uploads run the
// single-pass streaming engine without materializing the event streams,
// text archives fall back to the in-memory path. Result.Engine (and the
// X-Perfvar-Engine response header) reports which one ran. Results are
// persisted to the disk tier when one is configured, so a restarted
// daemon serves them without re-running the pipeline (w may be nil for
// inner lookups that must not tag the response).
func (s *Server) pipeline(ctx context.Context, w http.ResponseWriter, data []byte, p analysisParams) (*perfvar.Result, error) {
	// Uploads are bounded by MaxBytesReader; directory-served archives
	// arrive here unbounded, so the decoder's byte cap applies to both.
	if int64(len(data)) > s.cfg.MaxUploadBytes {
		return nil, fmt.Errorf("%w: archive exceeds %d bytes", trace.ErrTooLarge, s.cfg.MaxUploadBytes)
	}
	sum := sha256.Sum256(data)
	v, err := s.compute(ctx, w, cacheKey(sum, "pipeline", p.key), int64(len(data)), resultCodec, func(cctx context.Context) (any, error) {
		return perfvar.AnalyzeSource(cctx, perfvar.ArchiveSource(data), p.opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*perfvar.Result), nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Bytes int64  `json:"bytes"`
	}
	out := []entry{}
	if s.cfg.TraceDir != "" {
		des, err := os.ReadDir(s.cfg.TraceDir)
		if err != nil {
			s.httpError(w, r, err)
			return
		}
		for _, de := range des {
			if de.IsDir() {
				continue
			}
			fi, err := de.Info()
			if err != nil {
				continue
			}
			out = append(out, entry{Name: de.Name(), Bytes: fi.Size()})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	}
	writeJSON(w, map[string]any{"traces": out})
}

// resolveTrace maps a request's {name} onto a file inside the
// whitelisted directory, rejecting traversal.
func (s *Server) resolveTrace(name string) (string, error) {
	if s.cfg.TraceDir == "" {
		return "", fmt.Errorf("%w: no trace directory configured", os.ErrNotExist)
	}
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", fmt.Errorf("%w: invalid trace name %q", errBadParam, name)
	}
	path := filepath.Join(s.cfg.TraceDir, name)
	if fi, err := os.Stat(path); err != nil {
		return "", err
	} else if fi.IsDir() {
		return "", fmt.Errorf("%w: %q is a directory", errBadParam, name)
	}
	return path, nil
}

func (s *Server) handleTraceView(w http.ResponseWriter, r *http.Request) {
	path, err := s.resolveTrace(r.PathValue("name"))
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	s.serveView(w, r, data, r.PathValue("view"))
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			err = fmt.Errorf("%w: upload exceeds %d bytes", trace.ErrTooLarge, tooBig.Limit)
		}
		s.httpError(w, r, err)
		return
	}
	view := r.URL.Query().Get("view")
	if view == "" {
		view = "analysis"
	}
	s.serveView(w, r, data, view)
}

// knownViews is the set of representations serveView can produce. A
// request for anything else must 404 before any analysis runs.
var knownViews = map[string]bool{
	"analysis": true, "profile": true, "lint": true, "causality": true,
	"heatmap.png": true, "heatmap.svg": true, "byindex.png": true,
	"histogram.png": true, "report.html": true,
}

// renderViews are the knownViews that consume render parameters
// (width/height/labels, and hbins for the histogram).
var renderViews = map[string]bool{
	"heatmap.png": true, "heatmap.svg": true, "byindex.png": true,
	"histogram.png": true, "report.html": true,
}

// serveView runs the requested computation over one archive's bytes and
// renders the chosen representation. All views share the per-request
// timeout and the client-disconnect context. Every request parameter —
// view name, analysis options, render options — is validated before the
// (expensive, cached) pipeline runs, so a typo costs a 4xx, not an
// analysis.
func (s *Server) serveView(w http.ResponseWriter, r *http.Request, data []byte, view string) {
	if !knownViews[view] {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown view %q", view))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	p, err := parseAnalysisParams(r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	var o vis.RenderOptions
	hbins := 0
	if renderViews[view] {
		if o, err = parseRenderOptions(r); err != nil {
			s.httpError(w, r, err)
			return
		}
		// Negative hbins falls back to the histogram's own default;
		// only the upper bound guards allocation.
		if err = boundedInt(r.URL.Query(), "hbins", &hbins, -1, maxBinsParam); err != nil {
			s.httpError(w, r, err)
			return
		}
	}

	switch view {
	case "profile":
		s.serveProfile(ctx, w, r, data)
		return
	case "lint":
		s.serveLint(ctx, w, r, data)
		return
	}

	if renderViews[view] {
		// Rendered views cache their final bytes under a view-level key
		// (render parameters included), charged at actual size — large
		// renderings no longer ride the budget at archive length. The
		// pipeline result resolves through its own cache entry inside
		// the miss path (w nil: the inner tier must not retag the
		// response), so other views over the same archive stay warm.
		sum := sha256.Sum256(data)
		vkey := cacheKey(sum, "view:"+view, p.key+"|"+renderKey(o, hbins))
		v, err := s.compute(ctx, w, vkey, int64(len(data)), blobCodec, func(cctx context.Context) (any, error) {
			res, err := s.pipeline(cctx, nil, data, p)
			if err != nil {
				return nil, err
			}
			return renderBlob(res, view, o, hbins)
		})
		if err != nil {
			s.httpError(w, r, err)
			return
		}
		blob := v.(viewBlob)
		w.Header().Set("X-Perfvar-Engine", blob.Engine)
		w.Header().Set("Content-Type", blob.ContentType)
		w.Write(blob.Body)
		return
	}

	res, err := s.pipeline(ctx, w, data, p)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	w.Header().Set("X-Perfvar-Engine", res.Engine)

	switch view {
	case "analysis":
		var buf bytes.Buffer
		if err := res.Report().WriteJSON(&buf); err != nil {
			s.httpError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
	case "causality":
		sum := sha256.Sum256(data)
		v, err := s.compute(ctx, w, cacheKey(sum, "causality", p.key), int64(len(data)), nil, func(cctx context.Context) (any, error) {
			cres := res
			if cres.Trace == nil {
				// The pipeline streamed the archive (or restored the
				// result from disk), so no event streams survive for the
				// dependency-graph build — materialize the trace just for
				// this view.
				tr, err := trace.ReadAnyLimit(bytes.NewReader(data), s.cfg.MaxUploadBytes)
				if err != nil {
					return nil, err
				}
				if cres, err = perfvar.AnalyzeContext(cctx, tr, p.opts); err != nil {
					return nil, err
				}
			}
			return cres.CausalityContext(cctx)
		})
		if err != nil {
			s.httpError(w, r, err)
			return
		}
		writeJSON(w, v)
	}
}

// serveProfile renders the flat per-region profile (counts, inclusive
// and exclusive times) — the profiler-style companion view.
func (s *Server) serveProfile(ctx context.Context, w http.ResponseWriter, r *http.Request, data []byte) {
	sum := sha256.Sum256(data)
	v, err := s.compute(ctx, w, cacheKey(sum, "profile", ""), int64(len(data)), nil, func(cctx context.Context) (any, error) {
		tr, err := trace.ReadAnyLimit(bytes.NewReader(data), s.cfg.MaxUploadBytes)
		if err != nil {
			return nil, err
		}
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		prof, err := callstack.ProfileOf(cctx, tr)
		if err != nil {
			return nil, err
		}
		type row struct {
			Region       string  `json:"region"`
			Count        int64   `json:"count"`
			SumInclusive int64   `json:"sum_inclusive_ns"`
			SumExclusive int64   `json:"sum_exclusive_ns"`
			MaxInclusive int64   `json:"max_inclusive_ns"`
			Ranks        int     `json:"ranks"`
			Share        float64 `json:"share_of_total"`
		}
		total := float64(prof.TotalTime)
		rows := []row{}
		for _, rp := range prof.Regions {
			if rp.Count == 0 {
				continue
			}
			share := 0.0
			if total > 0 {
				share = float64(rp.SumInclusive) / total
			}
			rows = append(rows, row{
				Region:       tr.Region(rp.Region).Name,
				Count:        rp.Count,
				SumInclusive: int64(rp.SumInclusive),
				SumExclusive: int64(rp.SumExclusive),
				MaxInclusive: int64(rp.MaxInclusive),
				Ranks:        rp.Ranks,
				Share:        share,
			})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].SumInclusive != rows[j].SumInclusive {
				return rows[i].SumInclusive > rows[j].SumInclusive
			}
			return rows[i].Region < rows[j].Region
		})
		return map[string]any{"trace": tr.Name, "total_time_ns": int64(prof.TotalTime), "regions": rows}, nil
	})
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	writeJSON(w, v)
}

// lintResult pairs the lint findings with the engine that produced
// them, so cached hits report the same X-Perfvar-Engine tag as the
// computation that populated the cache.
type lintResult struct {
	res    *lint.Result
	engine string
}

// serveLint lints straight from the archive bytes: PVTR uploads run
// the streaming lint driver without materializing the event streams,
// text archives fall back to the in-memory path. The X-Perfvar-Engine
// response header reports which one ran.
func (s *Server) serveLint(ctx context.Context, w http.ResponseWriter, r *http.Request, data []byte) {
	// Uploads are bounded by MaxBytesReader; directory-served archives
	// arrive here unbounded, so the byte cap applies to both.
	if int64(len(data)) > s.cfg.MaxUploadBytes {
		s.httpError(w, r, fmt.Errorf("%w: archive exceeds %d bytes", trace.ErrTooLarge, s.cfg.MaxUploadBytes))
		return
	}
	sum := sha256.Sum256(data)
	v, err := s.compute(ctx, w, cacheKey(sum, "lint", ""), int64(len(data)), nil, func(cctx context.Context) (any, error) {
		st, err := perfvar.ArchiveSource(data).Open(cctx)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		engine := perfvar.EngineStream
		if st.Trace() != nil {
			engine = perfvar.EngineMaterialized
		}
		res, err := lint.RunSource(cctx, st, lint.Options{})
		if err != nil {
			return nil, err
		}
		return lintResult{res: res, engine: engine}, nil
	})
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	lr := v.(lintResult)
	var buf bytes.Buffer
	if err := lr.res.WriteJSON(&buf); err != nil {
		s.httpError(w, r, err)
		return
	}
	w.Header().Set("X-Perfvar-Engine", lr.engine)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
