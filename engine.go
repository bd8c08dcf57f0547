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
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// Engine values reported by Result.Engine.
const (
	// EngineStream marks a result computed by the single-pass streaming
	// engine: no materialized trace backs it (Result.Trace is nil).
	EngineStream = "stream"
	// EngineMaterialized marks a result computed over an in-memory trace.
	EngineMaterialized = "materialized"
)

// AnalyzeSource runs the full three-step pipeline over src. This is the
// canonical, context-taking entry point of the pipeline; Analyze and
// AnalyzeContext are thin TraceSource wrappers over it.
//
// The engine makes a single streaming pass over the source. Each rank's
// events feed a fused decode→replay accumulator (callstack.StreamReplay)
// for the flat profile, a multi-region candidate segmenter
// (segment.CandidateSet) that buffers segments for every possible
// dominant function at once, and a recorder of the rank's maximal MPI
// intervals for the MPI-fraction timeline. After the pass the dominant
// function is selected from the merged profile, the winner's segments
// are pulled from the candidate sets, the losers are discarded, and the
// recorded intervals are binned over the now-known global span. Decode
// buffers and per-rank scratch are pooled, so steady-state allocation
// is O(ranks × depth + segments), never O(events).
//
// A second decode pass happens only as a fallback: when the winning
// candidate was evicted because the per-rank segment buffer exceeded
// Options.CandidateSegmentBudget, or when a fused lint run
// (Options.Lint) segments at a different region than the engine under a
// custom Options.SyncPrefixes classifier. Either way — one pass or two —
// selection, segmentation, statistics, and the report are byte-identical
// to the materialized path's.
//
// Result.Engine reports which path ran. For streaming sources
// Result.Trace is nil, and operations that need the full event stream
// (Causality, Breakdown, SlowestIterationsTrace) report ErrNoTrace —
// analyze via TraceSource (or LoadTrace + Analyze) when those views are
// needed.
func AnalyzeSource(ctx context.Context, src Source, opts Options) (*Result, error) {
	st, err := src.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	h := st.Header()
	nranks := st.NumRanks()
	nregions := len(h.Regions)

	// Fused lint: the lint driver rides the same decode pass as the
	// pipeline, so Options.Lint costs no extra sweep over the source.
	var lr *lint.StreamRun
	if opts.Lint {
		lr = lint.NewStreamRun(h, nranks, lint.Options{})
	}

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
	isMPI := callstack.ParadigmMask(h.Regions, trace.ParadigmMPI)

	// The single pass: decode each rank once, feeding replay, candidate
	// segmentation, MPI-interval recording, and (optionally) lint.
	type rankPass struct {
		rep  *callstack.StreamReplay
		cand *segment.CandidateSet
		mpi  []trace.Time // maximal MPI intervals as (start, end) pairs
	}
	parts, err := parallel.MapCtx(ctx, nranks, func(rank int) (*rankPass, error) {
		p := &rankPass{
			rep:  callstack.NewStreamReplay(trace.Rank(rank), nregions),
			cand: segment.NewCandidateSet(trace.Rank(rank), track, syncMask, opts.CandidateSegmentBudget),
		}
		inMPI := callstack.NewIntervalRecorder(isMPI)
		feed := func(ev Event) error {
			if lr != nil {
				lr.FeedEvent(rank, ev)
			}
			// Replay first: it validates structure, so the consumers after
			// it only ever see events of a well-formed stream.
			if err := p.rep.Feed(ev); err != nil {
				return err
			}
			if err := p.cand.Feed(ev); err != nil {
				return err
			}
			if bins > 0 {
				if from, to, ok := inMPI.Feed(ev.Kind, ev.Region, ev.Time); ok {
					p.mpi = append(p.mpi, from, to)
				}
			}
			return nil
		}
		if err := st.StreamRank(rank, feed); err != nil {
			return nil, err
		}
		if lr != nil {
			lr.EndRank(rank)
		}
		if err := p.rep.Finish(); err != nil {
			return nil, err
		}
		return p, nil
	})
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

	reps := make([]*callstack.StreamReplay, nranks)
	for rank, p := range parts {
		reps[rank] = p.rep
	}
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

	// Collect the winner's segments from the candidate sets. A rank that
	// evicted the winner over budget forces the fallback pass.
	perRank := make([][]Segment, nranks)
	fallback := false
	for rank, p := range parts {
		segs, ok := p.cand.Segments(region)
		if !ok {
			fallback = true
			break
		}
		perRank[rank] = segs
	}

	// The fused lint run segments at its own dominant selection under the
	// default classifier. When the engine's classifier is the default
	// too, the lint region is itself a candidate, so its segments are
	// already buffered — adopt them instead of re-streaming. Only a
	// custom SyncPrefixes classifier (different masks) or an eviction
	// leaves lint needing the second look at the streams.
	lintSeg := lr != nil && lr.BeginSegments()
	if lintSeg && cls == nil {
		if lreg, ok := lr.SegmentTarget(); ok {
			adopt := make([][]Segment, nranks)
			adoptOK := true
			for rank, p := range parts {
				segs, ok := p.cand.Segments(lreg)
				if !ok {
					adoptOK = false
					break
				}
				adopt[rank] = segs
			}
			if adoptOK {
				lr.AdoptSegments(adopt)
				lintSeg = false
			}
		}
	}

	// Fallback second pass: re-stream each rank through a dedicated
	// segmenter (and the lint segmentation feed, when it still needs
	// one). Reached only on candidate-budget overflow or a lint/engine
	// classifier mismatch; results are byte-identical to the single-pass
	// adoption.
	if fallback || lintSeg {
		res2, err := parallel.MapCtx(ctx, nranks, func(rank int) ([]Segment, error) {
			var seg *segment.StreamSegmenter
			if fallback {
				seg = segment.NewStreamSegmenter(trace.Rank(rank), region, regionName, syncMask)
			}
			feed := func(ev Event) error {
				if lintSeg {
					lr.FeedSegment(rank, ev)
				}
				if seg != nil {
					return seg.Feed(ev)
				}
				return nil
			}
			if err := st.StreamRank(rank, feed); err != nil {
				return nil, err
			}
			if lintSeg {
				lr.EndSegmentRank(rank)
			}
			if seg == nil {
				return nil, nil
			}
			return seg.Finish()
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if fallback {
			perRank = res2
		}
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
		for _, p := range parts {
			for i := 0; i+1 < len(p.mpi); i += 2 {
				bn.AddInterval(p.mpi[i], p.mpi[i+1])
			}
		}
		frac = bn.Fractions(nranks)
	}

	var lres *lint.Result
	if lr != nil {
		lres, err = lr.Finish(ctx)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Trace:       st.Trace(),
		Lint:        lres,
		Selection:   sel,
		Matrix:      m,
		Analysis:    a,
		MPIFraction: frac,
		Engine:      EngineStream,
		source:      src,
		info:        resultInfo{name: h.Name, ranks: nranks, events: events, first: first, last: last},
	}
	if res.Trace != nil {
		res.Engine = EngineMaterialized
	}
	return res, nil
}
