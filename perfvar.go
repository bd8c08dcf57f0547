// Package perfvar detects and visualizes performance variations in traces
// of parallel applications, reproducing the methodology of Weber et al.,
// "Detection and Visualization of Performance Variations to Guide
// Identification of Application Bottlenecks" (ICPP 2016).
//
// The pipeline has three steps:
//
//  1. identify the time-dominant function (highest aggregated inclusive
//     time among functions invoked ≥ 2p times on p ranks),
//  2. cut the run into segments at its invocations and compute each
//     segment's synchronization-oblivious segment time (SOS-time:
//     inclusive duration minus MPI/OpenMP synchronization time), and
//  3. visualize the SOS-times as a blue-to-red heatmap over ranks × time
//     and rank the outliers, guiding the analyst to the bottleneck.
//
// The one-call entry point:
//
//	tr, _ := perfvar.LoadTrace("run.pvt")
//	res, _ := perfvar.Analyze(tr, perfvar.Options{})
//	res.Report().WriteText(os.Stdout)
//	perfvar.SavePNG("sos.png", res.Heatmap(perfvar.RenderOptions{Labels: true}))
//
// Synthetic workloads equivalent to the paper's three case studies are
// available via GenerateCosmoSpecs, GenerateFD4, and GenerateWRF.
package perfvar

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"perfvar/internal/callstack"
	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/compare"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/phases"
	"perfvar/internal/core/segment"
	"perfvar/internal/lint"
	"perfvar/internal/online"
	"perfvar/internal/parallel"
	"perfvar/internal/report"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
	"perfvar/internal/workloads"
)

// Re-exported core types. The aliases expose the full APIs of the
// underlying packages through the perfvar façade.
type (
	// Trace is a measurement data set: definitions plus per-rank event
	// streams.
	Trace = trace.Trace
	// Rank identifies a processing element.
	Rank = trace.Rank
	// Selection is the result of dominant-function identification.
	Selection = dominant.Selection
	// Candidate describes one dominant-function candidate.
	Candidate = dominant.Candidate
	// Matrix holds the per-rank, per-invocation segments with SOS-times.
	Matrix = segment.Matrix
	// Segment is a single dominant-function invocation.
	Segment = segment.Segment
	// Analysis is the hotspot/trend analysis over a segment matrix.
	Analysis = imbalance.Analysis
	// Hotspot is an outlier segment.
	Hotspot = imbalance.Hotspot
	// RenderOptions control the visualization rasterizer.
	RenderOptions = vis.RenderOptions
	// Image is a rendered view (alias for image.RGBA).
	Image = vis.Image
	// Report is the text/JSON reporting facade.
	Report = report.Report

	// Clustering is a phase classification of a run's segments.
	Clustering = phases.Clustering
	// Comparison relates two runs iteration-by-iteration.
	Comparison = compare.Comparison
	// ClockInfo summarizes a clock-skew correction.
	ClockInfo = clockfix.Info
	// BreakdownEntry attributes part of a segment to one region.
	BreakdownEntry = segment.BreakdownEntry
	// CallTree is the merged calling-context tree of a trace.
	CallTree = callstack.CallTree
	// Region, RegionID, and Event expose the trace data model for
	// instrumentation and streaming consumers.
	Region   = trace.Region
	RegionID = trace.RegionID
	Event    = trace.Event
	// TraceHeader carries an archive's definitions during streaming reads.
	TraceHeader = trace.Header

	// OnlineAnalyzer detects hotspots in-situ, while events stream in.
	OnlineAnalyzer = online.Analyzer
	// OnlineAlert is one hotspot raised by the online analyzer.
	OnlineAlert = online.Alert
	// OnlineOptions tune the online detector.
	OnlineOptions = online.Options
	// OnlineConfig assembles an online analyzer: rank count, region
	// definitions, the dominant function by RegionID or by name, optional
	// classifier and options. Build with OnlineConfig.NewAnalyzer.
	OnlineConfig = online.Config

	// CosmoSpecsConfig parameterizes the Fig. 4 case-study workload.
	CosmoSpecsConfig = workloads.CosmoSpecsConfig
	// FD4Config parameterizes the Fig. 5 case-study workload.
	FD4Config = workloads.FD4Config
	// WRFConfig parameterizes the Fig. 6 case-study workload.
	WRFConfig = workloads.WRFConfig
	// LeakConfig parameterizes the gradual-slowdown workload.
	LeakConfig = workloads.LeakConfig
)

// Builder constructs traces event-by-event — the instrumentation entry
// point for applications that produce their own measurement data instead
// of using the bundled workloads or archive files.
type Builder = trace.Builder

// NewTraceBuilder returns a builder for a trace named name with nranks
// processing elements.
func NewTraceBuilder(name string, nranks int) *Builder {
	return trace.NewBuilder(name, nranks)
}

// Re-exported definition attributes for Builder users.
const (
	ParadigmUser   = trace.ParadigmUser
	ParadigmMPI    = trace.ParadigmMPI
	ParadigmOpenMP = trace.ParadigmOpenMP
	ParadigmIO     = trace.ParadigmIO

	RoleFunction     = trace.RoleFunction
	RoleLoop         = trace.RoleLoop
	RoleBarrier      = trace.RoleBarrier
	RoleCollective   = trace.RoleCollective
	RolePointToPoint = trace.RolePointToPoint
	RoleWait         = trace.RoleWait
	RoleFileIO       = trace.RoleFileIO

	MetricAccumulated = trace.MetricAccumulated
	MetricAbsolute    = trace.MetricAbsolute

	Nanosecond  = trace.Nanosecond
	Microsecond = trace.Microsecond
	Millisecond = trace.Millisecond
	Second      = trace.Second
)

// SetJobs overrides how many worker goroutines the per-rank analysis
// stages (replay, segmentation, statistics, archive decoding, linting)
// fan out to. n <= 0 restores the default of GOMAXPROCS. It returns the
// previous setting. Results are identical at every setting; only the
// wall-clock time changes.
func SetJobs(n int) int { return parallel.SetJobs(n) }

// Jobs reports the current worker count used by the per-rank stages.
func Jobs() int { return parallel.Jobs() }

// Options configure the Analyze pipeline. The zero value reproduces the
// paper's defaults.
type Options struct {
	// DominantFunction forces segmentation at the named function instead
	// of the automatically selected one (the paper's manual refinement,
	// Fig. 5c). Empty means automatic selection.
	DominantFunction string
	// Multiplier scales the dominant-function invocation threshold
	// (default 2: a candidate needs ≥ 2p invocations on p ranks).
	Multiplier int
	// SyncPrefixes, when non-empty, classifies synchronization by region
	// name prefix instead of by paradigm.
	SyncPrefixes []string
	// ZThreshold is the robust z-score hotspot cutoff (default 3.5).
	ZThreshold float64
	// TopK caps the reported hotspots (0 = all).
	TopK int
	// MPIFractionBins sets the resolution of the MPI-share timeline
	// attached to reports (default 20; negative disables).
	MPIFractionBins int
	// PerIteration scores each segment against its own iteration's
	// distribution instead of the whole run's — use when a global trend
	// (gradual slowdown) would mask rank-relative outliers.
	PerIteration bool
	// Lint fuses a full lint run (all registered analyzers, default
	// options) into the engine's streaming pass: the same decode that
	// feeds the pipeline feeds the lint visitors, so enabling it costs no
	// extra pass over the source. The outcome lands in Result.Lint.
	Lint bool
	// CandidateSegmentBudget caps, per rank, how many segment records the
	// streaming engine's single pass may buffer across all candidate
	// dominant functions before it evicts candidates and — should the
	// eviction hit the eventual winner — falls back to a second decode
	// pass (0 = segment.DefaultCandidateBudget, 1<<16 records ≈ 1.5 MiB per
	// rank).
	CandidateSegmentBudget int
}

// ErrNoTrace reports an operation that needs the event streams again on
// a result restored by DecodeStoredResult, which has no re-openable
// source; CausalitySource takes the archive and the restored Matrix.
var ErrNoTrace = errors.New("perfvar: the result has no re-openable source (restored from disk)")

// Result is the complete outcome of one analysis run. Every result has
// the same shape, whatever kind of source it was analyzed from: the
// views answer from the analysis and the tallied trace metadata, and
// the operations that need the events stream the source again.
type Result struct {
	// Trace is never set: a result keeps its source, not a trace, and
	// SlowestIterationsTrace extracts sub-traces from that source.
	//
	// Deprecated: always nil.
	Trace     *Trace
	Selection Selection
	Matrix    *Matrix
	Analysis  *Analysis
	// MPIFraction is the binned MPI-time share over the run.
	MPIFraction []float64
	// Engine reports whether the source streamed from an in-memory trace
	// (EngineMaterialized) or without one (EngineStream); see EngineOf.
	// Both produce byte-identical analyses.
	Engine string
	// Lint is the fused lint result when Options.Lint was set (identical
	// to a standalone lint.Run/RunSource over the same data), nil
	// otherwise.
	Lint *lint.Result

	// source re-opens the measurement data for operations that need
	// another pass (Refine, Breakdown, Causality,
	// SlowestIterationsTrace); nil on restored results.
	source Source
	info   resultInfo
}

// resultInfo is the trace metadata an analysis retains in place of the
// trace itself: enough for reports and span-based rendering.
type resultInfo struct {
	name        string
	ranks       int
	events      int64
	first, last trace.Time
}

// Analyze runs the full three-step pipeline on tr. It is the ctx-free
// wrapper over AnalyzeContext; the canonical entry point is
// AnalyzeSource.
func Analyze(tr *Trace, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), tr, opts)
}

// AnalyzeContext is Analyze observing ctx: every per-rank fan-out of the
// pipeline (profile replay, segmentation, imbalance statistics) checks
// the context between work items, so a cancelled or timed-out request —
// e.g. an HTTP client that hung up on perfvard — stops burning pool
// workers instead of running the analysis to completion. It is a thin
// TraceSource wrapper over AnalyzeSource.
func AnalyzeContext(ctx context.Context, tr *Trace, opts Options) (*Result, error) {
	return AnalyzeSource(ctx, TraceSource(tr), opts)
}

// Refine re-runs segmentation and analysis at a finer granularity: the
// highest-ranked candidate with more invocations than the current
// dominant function (paper Fig. 5c). It returns an error when no finer
// candidate exists. The result's source is streamed again.
func (r *Result) Refine(opts Options) (*Result, error) {
	finer, ok := r.Selection.Finer(r.Matrix.Region)
	if !ok {
		return nil, fmt.Errorf("perfvar: no finer segmentation candidate than %q", r.Matrix.RegionName)
	}
	opts.DominantFunction = finer.Name
	if r.source == nil {
		return nil, ErrNoTrace
	}
	return AnalyzeSource(context.Background(), r.source, opts)
}

// Report builds the text/JSON report for the result from the metadata
// tallied during analysis.
func (r *Result) Report() *Report {
	return &report.Report{
		TraceName:   r.info.name,
		Ranks:       r.info.ranks,
		Events:      int(r.info.events),
		Selection:   r.Selection,
		Analysis:    r.Analysis,
		MPIFraction: r.MPIFraction,
	}
}

// SlowestIterationsTrace extracts the sub-trace covering the k slowest
// iterations (by maximum SOS-time across ranks) — the paper's workflow of
// keeping only the interesting iterations for focused analysis. It
// streams the result's source again, each rank only up to the end of the
// time window those iterations span; the sub-trace is balanced,
// analyzable, and equal to Trace.Window over that window. k ≤ 0 selects
// no iteration and gives the definitions without events. A restored
// result has no source (ErrNoTrace).
func (r *Result) SlowestIterationsTrace(k int) (*Trace, error) {
	if r.source == nil {
		return nil, ErrNoTrace
	}
	iters := append([]imbalance.IterationStats(nil), r.Analysis.Iterations...)
	sort.Slice(iters, func(i, j int) bool { return iters[i].MaxSOS > iters[j].MaxSOS })
	k = max(0, min(k, len(iters)))
	var from, to trace.Time
	selected := false
	for _, is := range iters[:k] {
		for _, seg := range r.Matrix.Column(is.Index) {
			if !selected || seg.Start < from {
				from = seg.Start
			}
			if !selected || seg.End > to {
				to = seg.End
			}
			selected = true
		}
	}
	st, err := r.source.Open(context.Background())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	stream := st.StreamRank
	if !selected {
		stream = func(int, func(Event) error) error { return nil }
	}
	return trace.WindowStreams(st.Header(), from, to, stream)
}

// Heatmap renders the SOS-time heatmap (the paper's core visualization)
// over the run span tallied during analysis.
func (r *Result) Heatmap(opts RenderOptions) *vis.Image {
	return vis.SOSHeatmapSpan(r.info.first, r.info.last, r.Matrix, opts)
}

// HeatmapByIndex renders the SOS heatmap in invocation-index space:
// every iteration gets equal width, keeping late (stretched) iterations
// comparable to early ones.
func (r *Result) HeatmapByIndex(opts RenderOptions) *vis.Image {
	return vis.SOSHeatmapByIndex(r.Matrix, opts)
}

// Histogram renders the distribution of the result's SOS-times.
func (r *Result) Histogram(bins int, opts RenderOptions) *vis.Image {
	return vis.SOSHistogram(r.Matrix, bins, opts)
}

// Phases clusters the result's segments into k computation phases
// (k ≤ 0 chooses k automatically by the elbow criterion, up to 6).
func (r *Result) Phases(k int) *Clustering {
	if k <= 0 {
		return phases.AutoCluster(r.Matrix, 6)
	}
	return phases.Cluster(r.Matrix, k)
}

// Breakdown dissects one segment into per-region exclusive times — the
// focused follow-up once a hotspot is identified. It streams seg.Rank
// again through the result's source, up to the segment's end; a
// restored result has none (ErrNoTrace).
func (r *Result) Breakdown(seg Segment) ([]BreakdownEntry, error) {
	if r.source == nil {
		return nil, ErrNoTrace
	}
	st, err := r.source.Open(context.Background())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	entries, err := segment.Breakdown(st.Header().Regions, []Segment{seg}, st.StreamRank)
	if err != nil {
		return nil, err
	}
	return entries[0], nil
}

// WaitAttribution is a per-rank summary of caused peer wait time.
type WaitAttribution = imbalance.Attribution

// WaitCausers returns the ranks ordered by how much aggregate peer wait
// time they caused (the slowest rank of each iteration is charged with
// everyone else's idle gap).
func (r *Result) WaitCausers() []WaitAttribution {
	return imbalance.TopWaitCausers(imbalance.AttributeWait(r.Matrix))
}

// CausalityAnalysis is the cross-rank root-cause analysis: wait-state
// totals, ranked (rank, segment, function) candidates, and deadlock
// cycles.
type CausalityAnalysis = causality.Analysis

// CausalityCandidate is one root-cause candidate triple.
type CausalityCandidate = causality.Candidate

// CausalityRank aggregates one rank's propagated blame.
type CausalityRank = causality.RankAttribution

// Causality builds the cross-rank message-dependency graph of the
// result's trace (matched send/recv pairs plus collectives, per-segment
// edges weighted by wait time), classifies the wait states, folds
// indirect waits back onto their originating ranks, and ranks root-cause
// candidates. Unlike WaitCausers, which charges the slowest rank of each
// iteration, this follows the actual communication dependencies. It is
// the ctx-free wrapper over CausalityContext.
func (r *Result) Causality() (*CausalityAnalysis, error) {
	return r.CausalityContext(context.Background())
}

// CausalityContext is the canonical, context-taking form of Causality:
// CausalitySource over the result's source and segment matrix. A
// restored result has no source (ErrNoTrace).
func (r *Result) CausalityContext(ctx context.Context) (*CausalityAnalysis, error) {
	if r.source == nil {
		return nil, ErrNoTrace
	}
	return CausalitySource(ctx, r.source, r.Matrix)
}

// CausalitySource runs the causality analysis of src segmented by m, the
// Matrix of a result analyzed from the same data. One sweep over every
// rank builds the dependency graph; only the candidates' ranks are
// streamed again, to name their functions. Cancelling ctx stops the
// per-rank fan-outs with ctx.Err().
func CausalitySource(ctx context.Context, src Source, m *Matrix) (*CausalityAnalysis, error) {
	st, err := src.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	g, err := lint.DependencyGraph(ctx, st, m)
	if err != nil {
		return nil, err
	}
	an := causality.Analyze(g, causality.Options{})
	if err := causality.ResolveFunctions(ctx, an, st.Header().Regions, st.StreamRank); err != nil {
		return nil, err
	}
	return an, nil
}

// RankTrend is one rank's slowdown fit.
type RankTrend = imbalance.RankTrend

// RankTrends returns the per-rank slowdown fits (slope of SOS over
// iterations), steepest first, restricted to fits with r² ≥ minR2.
func (r *Result) RankTrends(minR2 float64) []RankTrend {
	return imbalance.RankTrends(r.Matrix, minR2)
}

// CompareRuns aligns two analyses iteration-by-iteration and quantifies
// speedups and imbalance changes (before/after-fix comparisons).
func CompareRuns(a, b *Result) *Comparison {
	return compare.Compare(a.Matrix, b.Matrix)
}

// ComparisonHeatmap renders two runs' SOS heatmaps stacked with a shared
// color scale (run A on top).
func ComparisonHeatmap(a, b *Result, opts RenderOptions) *Image {
	return vis.ComparisonHeatmap(a.comparedRun(), b.comparedRun(), opts)
}

func (r *Result) comparedRun() vis.ComparedRun {
	return vis.ComparedRun{Name: r.info.name, First: r.info.first, Last: r.info.last, Matrix: r.Matrix}
}

// CorrectClocks detects causality violations (messages received before
// they were sent) and returns a skew-corrected copy of tr. minLatency is
// the assumed minimal network latency in nanoseconds.
func CorrectClocks(tr *Trace, minLatency int64) (*Trace, ClockInfo, error) {
	return clockfix.Correct(tr, minLatency)
}

// CorrectClocksSource is CorrectClocks for any source: it estimates the
// per-rank clock offsets from one sweep over src's streams and returns a
// source that shifts each rank's timestamps as they stream, so nothing
// is materialized.
func CorrectClocksSource(ctx context.Context, src Source, minLatency int64) (Source, ClockInfo, error) {
	st, err := src.Open(ctx)
	if err != nil {
		return nil, ClockInfo{}, err
	}
	defer st.Close()
	shifts, info, err := clockfix.CorrectStreams(ctx, st.NumRanks(), st.StreamRank, minLatency)
	if err != nil {
		return nil, info, err
	}
	return shiftedSource{src: src, shifts: shifts}, info, nil
}

// ValidateSource checks the structural invariants of src's streams as
// Trace.Validate does, in one parallel pass. It returns the lowest rank's
// stream error when a rank fails to decode, otherwise the first
// violation of the lowest violating rank, or nil.
func ValidateSource(ctx context.Context, src Source) error {
	st, err := src.Open(ctx)
	if err != nil {
		return err
	}
	defer st.Close()
	return trace.ValidateStreams(st.Header(), st.NumRanks(), st.StreamRank)
}

// CallTreeSource returns the merged calling-context tree of src's
// streams — the profiler-style drill-down companion to the timeline
// views.
func CallTreeSource(ctx context.Context, src Source) (*CallTree, error) {
	st, err := src.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return callstack.CallTreeOf(st.Header().Regions, st.NumRanks(), st.StreamRank)
}

// FunctionSummary renders the per-region exclusive-time bar chart
// (Vampir's function summary view).
func FunctionSummary(tr *Trace, topN int, opts RenderOptions) *vis.Image {
	return vis.FunctionSummary(tr, topN, opts)
}

// Timeline renders the classic function-colored timeline view of the
// trace.
func Timeline(tr *Trace, opts RenderOptions) *vis.Image {
	return vis.Timeline(tr, opts)
}

// CounterHeatmap renders a counter metric as a rank × time heatmap (the
// paper's Fig. 6c view). The metric is looked up by name.
func CounterHeatmap(tr *Trace, metricName string, opts RenderOptions) (*vis.Image, error) {
	m, ok := tr.MetricByName(metricName)
	if !ok {
		return nil, fmt.Errorf("perfvar: metric %q not found in trace", metricName)
	}
	return vis.CounterHeatmap(tr, m.ID, opts), nil
}

// LoadTrace reads a trace archive from path and validates it. Regular
// files may be binary PVTR or text pvtt (auto-detected by magic bytes);
// a directory is read as a multi-file archive (anchor + per-rank files).
func LoadTrace(path string) (*Trace, error) {
	tr, err := trace.ReadAnyFile(path)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// SaveTraceDir writes tr as a multi-file directory archive (one anchor
// file plus one event file per rank — the layout parallel measurement
// systems produce).
func SaveTraceDir(dir string, tr *Trace) error { return trace.WriteDir(dir, tr) }

// ConcatTraces stitches two measurement sessions of the same application
// into one trace: b's events follow a's after gap nanoseconds,
// definitions are merged by name, and accumulated counters are rebased so
// they stay monotone.
func ConcatTraces(a, b *Trace, gap int64) (*Trace, error) { return trace.Concat(a, b, gap) }

// SaveTrace writes tr to path; a ".pvtt" extension selects the text
// format, everything else the binary PVTR format.
func SaveTrace(path string, tr *Trace) error {
	if strings.HasSuffix(path, ".pvtt") {
		return trace.WriteTextFile(path, tr)
	}
	return trace.WriteFile(path, tr)
}

// SavePNG writes a rendered image as a PNG file.
func SavePNG(path string, img *vis.Image) error { return vis.SavePNG(path, img) }

// SaveSVG writes a rendered image as an SVG file.
func SaveSVG(path string, img *vis.Image) error { return vis.SaveSVG(path, img) }

// ANSI renders an image for a truecolor terminal, cols characters wide.
func ANSI(img *vis.Image, cols int) string { return vis.ANSI(img, cols) }

// RelDeviation sets OnlineOptions.MinRelDeviation to exactly v: zero
// alerts on any excess over the median, negative disables the gate.
// A nil field keeps the 5% default.
func RelDeviation(v float64) *float64 { return online.RelDeviation(v) }

// StreamTrace reads the archive at path event-by-event without
// materializing it, invoking fn per event (rank-major). It returns the
// archive's definitions. Returning ErrStopStream from fn ends the stream
// early without error.
func StreamTrace(path string, fn func(rank Rank, ev Event) error) (*TraceHeader, error) {
	return trace.StreamFile(path, fn)
}

// ErrStopStream lets a StreamTrace callback stop the stream early.
var ErrStopStream = trace.ErrStopStream

// ReadTraceHeader reads only an archive's definitions — the cheap setup
// step before streaming.
func ReadTraceHeader(path string) (*TraceHeader, error) {
	return trace.ReadHeaderFile(path)
}

// GenerateCosmoSpecs produces a trace of the COSMO-SPECS load-imbalance
// case study (paper Fig. 4). Use DefaultCosmoSpecs for the paper-scale
// parameters.
func GenerateCosmoSpecs(cfg CosmoSpecsConfig) (*Trace, error) { return workloads.CosmoSpecs(cfg) }

// GenerateFD4 produces a trace of the COSMO-SPECS+FD4 process-interruption
// case study (paper Fig. 5).
func GenerateFD4(cfg FD4Config) (*Trace, error) { return workloads.FD4(cfg) }

// GenerateWRF produces a trace of the WRF floating-point-exception case
// study (paper Fig. 6).
func GenerateWRF(cfg WRFConfig) (*Trace, error) { return workloads.WRF(cfg) }

// GenerateLeak produces a trace of the gradual-slowdown scenario (no
// culprit rank, growing per-iteration cost) that exercises the trend
// detector.
func GenerateLeak(cfg LeakConfig) (*Trace, error) { return workloads.Leak(cfg) }

// DefaultLeak returns the default gradual-slowdown configuration.
func DefaultLeak() LeakConfig { return workloads.DefaultLeak() }

// DefaultCosmoSpecs returns the paper-scale COSMO-SPECS configuration
// (100 ranks, 60 steps, growing cloud over ranks 44-65).
func DefaultCosmoSpecs() CosmoSpecsConfig { return workloads.DefaultCosmoSpecs() }

// DefaultFD4 returns the paper-scale COSMO-SPECS+FD4 configuration
// (200 ranks, OS interruption of rank 20).
func DefaultFD4() FD4Config { return workloads.DefaultFD4() }

// DefaultWRF returns the paper-scale WRF configuration (64 ranks, FP
// exceptions on rank 39).
func DefaultWRF() WRFConfig { return workloads.DefaultWRF() }
