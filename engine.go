package perfvar

import (
	"context"
	"errors"
	"fmt"

	"perfvar/internal/callstack"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/lint"
	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
)

// Engine values reported by Result.Engine (see EngineOf). Both tags name
// the same single-pass engine; they tell whether the source had to be
// materialized in memory to be streamed.
const (
	// EngineStream marks a result whose source streamed without
	// materializing a trace.
	EngineStream = "stream"
	// EngineMaterialized marks a result whose source streamed from an
	// in-memory trace (TraceSource, WorkloadSource, pvtt archives).
	EngineMaterialized = "materialized"
)

// AnalyzeSource runs the full three-step pipeline over src. This is the
// canonical, context-taking entry point of the pipeline; Analyze and
// AnalyzeContext are thin TraceSource wrappers over it.
//
// The engine streams each rank once, a decoded run of events at a
// time, through the one per-rank pass (internal/rankpass): a call-stack
// replay for the flat profile, a multi-region candidate store
// (segment.CandidateSet) that buffers segments for every possible
// dominant function at once, cut from the invocations the replay closes
// with their sync time measured on the replay's own frames, so each
// event walks one call stack, and a recorder of the rank's maximal MPI
// intervals for the MPI-fraction timeline; with Options.Lint the lint
// run plugs its own consumers into the same pass. After the pass the dominant function is selected from the merged
// profile, the winner's segments are copied out of the candidate sets,
// the losers are discarded, and the recorded intervals are binned over
// the now-known global span. Decode buffers, per-rank scratch, and the
// chunks that hold candidate segments and MPI intervals are pooled and
// go back on every return path, and nothing the result keeps aliases
// one. So in a process that analyzes more than once, steady-state
// allocation is O(ranks × depth + the winner's segments): never
// O(events), and never the segments of the candidates that lost
// selection.
//
// A rank stops streaming at its first replay error, which fails the
// analysis as a "dominant:" error. A second pass streams the source
// again only as the pass's one fallback: when the winning candidate was
// evicted because the per-rank segment buffer exceeded
// Options.CandidateSegmentBudget, or when a fused lint run segments under
// the default sync mask while a custom Options.SyncPrefixes classifier
// gives the engine a different one. Either way — one pass or two —
// selection, segmentation, statistics, and the report are byte-identical.
//
// The result keeps src and the trace metadata tallied during the pass
// (name, ranks, events, span), whatever kind of source src is: Report
// and Heatmap answer from the metadata, while Causality, Breakdown,
// Refine and SlowestIterationsTrace stream src again.
func AnalyzeSource(ctx context.Context, src Source, opts Options) (*Result, error) {
	st, err := src.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	h := st.Header()
	nranks := st.NumRanks()
	nregions := len(h.Regions)

	// Sync classification and the candidate-region mask depend only on
	// the options and the definitions, so both are known before the pass.
	// Candidates mirror what dominant selection can pick — user-paradigm,
	// non-sync regions — plus any region a DominantFunction override
	// names.
	var cls segment.SyncClassifier
	if len(opts.SyncPrefixes) > 0 {
		cls = segment.NameSync(opts.SyncPrefixes)
	}
	syncMask := segment.SyncMask(h.Regions, cls)
	track := make([]bool, nregions)
	for i, r := range h.Regions {
		if syncMask[i] {
			continue
		}
		track[i] = r.Paradigm == trace.ParadigmUser ||
			(opts.DominantFunction != "" && r.Name == opts.DominantFunction)
	}

	bins := opts.MPIFractionBins
	if bins == 0 {
		bins = 20
	}
	cfg := rankpass.Config{
		Replay: true, Track: track, SyncMask: syncMask, Budget: opts.CandidateSegmentBudget,
		// The engine has no use for a rank that does not replay: it fails.
		Stop: true,
	}
	if bins > 0 {
		cfg.Intervals = callstack.ParadigmMask(h.Regions, trace.ParadigmMPI)
	}
	// Fused lint rides the same pass, so Options.Lint costs no extra
	// sweep over the source.
	var lr *lint.StreamRun
	if opts.Lint {
		lr = lint.NewStreamRun(h, nranks, lint.Options{})
		lr.Configure(&cfg)
	}

	pass, err := rankpass.Run(ctx, st, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, trace.ErrFormat) {
			return nil, err
		}
		// Replay failures surface as selection errors, exactly as on the
		// materialized path (dominant.SelectContext).
		return nil, fmt.Errorf("dominant: %w", err)
	}
	// Every rank's candidate chunks and MPI intervals go back to their
	// pools on every return path: by then the winner's segments are
	// copies, and the intervals are binned.
	defer pass.Release()

	reps := pass.Replays()
	prof := callstack.ProfileFromStreams(nregions, reps)
	sel, err := dominant.SelectFromProfileDefs(h.Regions, nranks, prof, dominant.Options{Multiplier: opts.Multiplier})
	if err != nil {
		return nil, err
	}

	region := sel.Dominant.Region
	if opts.DominantFunction != "" {
		found := false
		for _, r := range h.Regions { // first match, as Trace.RegionByName
			if r.Name == opts.DominantFunction {
				region, found = r.ID, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("perfvar: region %q not found in trace", opts.DominantFunction)
		}
	}

	// Prepare re-derives the mask already used during the pass; it runs
	// for its validation (undefined or sync-classified region).
	if _, err := segment.Prepare(h.Regions, region, cls); err != nil {
		return nil, err
	}
	regionName := h.Regions[region].Name

	// Trace metadata tallied during the pass — what the result retains in
	// place of the trace itself.
	var events int64
	var first, last trace.Time
	spanned := false
	for _, sr := range reps {
		events += sr.Events()
		f, l, ok := sr.Span()
		if !ok {
			continue
		}
		if !spanned || f < first {
			first = f
		}
		if !spanned || l > last {
			last = l
		}
		spanned = true
	}

	perRank, err := pass.Segments(ctx, region, regionName, syncMask)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}

	m := &Matrix{Region: region, RegionName: regionName, PerRank: perRank}
	a, err := imbalance.AnalyzeContext(ctx, m, imbalance.Options{
		ZThreshold:   opts.ZThreshold,
		TopK:         opts.TopK,
		PerIteration: opts.PerIteration,
	})
	if err != nil {
		return nil, err
	}

	// Bin the recorded MPI intervals now that the global span is known,
	// through the binner imbalance.MPIFractionTimeline uses.
	var frac []float64
	if bins > 0 {
		bn := imbalance.NewBinner(first, last, bins)
		for _, r := range pass.Ranks {
			for i := 0; i < r.Intervals.NumChunks(); i++ {
				for _, iv := range r.Intervals.Chunk(i) {
					bn.AddInterval(iv[0], iv[1])
				}
			}
		}
		frac = bn.Fractions(nranks)
	}

	var lres *lint.Result
	if lr != nil {
		lres, err = lr.Finish(ctx, pass)
		if err != nil {
			return nil, err
		}
	}

	return &Result{
		Lint:        lres,
		Selection:   sel,
		Matrix:      m,
		Analysis:    a,
		MPIFraction: frac,
		Engine:      EngineOf(st),
		source:      src,
		info:        resultInfo{name: h.Name, ranks: nranks, events: events, first: first, last: last},
	}, nil
}
