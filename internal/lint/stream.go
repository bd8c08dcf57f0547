package lint

import (
	"context"
	"fmt"
	"sync"

	"perfvar/internal/callstack"
	"perfvar/internal/causality"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// opScratch pools per-rank op accumulation buffers. A rank's ops are
// appended here during its feed phase and copied out at exact size in
// EndRank, so the append-doubling garbage is paid only while the pool
// warms up (one buffer per concurrently-fed rank), not once per rank.
var opScratch = sync.Pool{New: func() any { s := make([]opRec, 0, 512); return &s }}

// StreamRun is the incremental lint driver: it consumes per-rank event
// streams, maintains the compact summary facts every analyzer consumes,
// and feeds the event-visiting analyzers along the way. It is the
// engine both runner entry points (Run over a materialized trace,
// RunSource over a Source) share, and the hook AnalyzeSource uses to
// fuse linting into its decode passes — one decode serves the pipeline
// and the lint run.
//
// Protocol: FeedEvent every event of a rank in stream order, then
// EndRank once per rank. Ranks may be driven concurrently, but calls
// for one rank must be sequential. After every rank ended, call
// BeginSegments; if it returns true, re-stream every rank through
// FeedSegment/EndSegmentRank (the segmentation pass needs a second look
// at the events). Finally, Finish collects the diagnostics.
//
// Feeding never fails: analyzer errors are recorded and surface as
// error-severity diagnostics at Finish, so a fused caller's own
// analysis is never aborted by lint.
type StreamRun struct {
	analyzers []Analyzer
	opts      Options
	facts     *facts
	need      needs

	passes   []*Pass
	visitors []StreamVisitor
	eventVis []int // indices into visitors that consume the event feed
	evIndex  []int // analyzer index -> position in eventVis, or -1

	cols     []*rankCollector
	visitErr [][]error // [rank][len(eventVis)], allocated on first error

	barrierDone bool
	segRegion   trace.RegionID
	segName     string
	segmenters  []*segment.StreamSegmenter
	segErr      []error
	segRes      [][]segment.Segment
}

// needs lists the summary facts the requested analyzer set consumes, so
// the driver skips collectors nobody reads. Unknown (external) analyzer
// names enable everything — they may consult any fact.
type needs struct {
	ops, replay, scan, sel bool
}

func needsOf(analyzers []Analyzer) needs {
	var n needs
	for _, a := range analyzers {
		switch a.Name() {
		case "nesting", "idlerank", "metricmode":
			// Structural issues and event counts are always collected.
		case "msgmatch", "commdeadlock", "clockskew":
			n.ops = true
		case "zeroseg", "syncdepth":
			n.replay = true
		case "dominance":
			n.sel = true
		case "latesender", "waitchain":
			n.sel, n.scan, n.ops = true, true, true
		default:
			return needs{ops: true, replay: true, scan: true, sel: true}
		}
	}
	n.replay = n.replay || n.sel
	return n
}

// rankCollector folds one rank's event stream into that rank's summary
// facts. All state is rank-local, so collectors run lock-free under the
// driver's one-goroutine-per-rank contract.
type rankCollector struct {
	checker   *trace.StreamChecker
	count     int
	ops       []opRec
	replay    *callstack.StreamReplay
	replayErr error
	zeros     map[trace.RegionID]*ZeroRegion
	syncs     []SyncDepth
	syncSeen  map[SyncDepth]bool
	scan      *causality.RankScanner
}

// NewStreamRun prepares an incremental lint run over a trace with the
// given header and rank count. Options are interpreted exactly as by
// Run.
func NewStreamRun(h *trace.Header, nranks int, opts Options) *StreamRun {
	return newStreamRun(h, nranks, nil, opts)
}

func newStreamRun(h *trace.Header, nranks int, tr *trace.Trace, opts Options) *StreamRun {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	minLatency := opts.MinLatency
	if minLatency <= 0 {
		minLatency = DefaultMinLatency
	}
	f := &facts{
		header: h, tr: tr, nranks: nranks, minLatency: minLatency,
		structural: make([][]trace.Issue, nranks),
		counts:     make([]int, nranks),
		zeros:      make([][]ZeroRegion, nranks),
		syncs:      make([][]SyncDepth, nranks),
		replayErr:  make([]error, nranks),
	}
	r := &StreamRun{analyzers: analyzers, opts: opts, facts: f, need: needsOf(analyzers)}
	if r.need.ops {
		f.ops = make([][]opRec, nranks)
	}
	if r.need.scan {
		f.scans = make([]*causality.RankScanner, nranks)
	}
	r.passes = make([]*Pass, len(analyzers))
	r.visitors = make([]StreamVisitor, len(analyzers))
	r.evIndex = make([]int, len(analyzers))
	for i, a := range analyzers {
		p := &Pass{Trace: tr, analyzer: a, facts: f}
		r.passes[i] = p
		v := a.Stream(p)
		r.visitors[i] = v
		r.evIndex[i] = -1
		if _, skip := v.(interface{ passive() }); !skip {
			r.evIndex[i] = len(r.eventVis)
			r.eventVis = append(r.eventVis, i)
		}
	}
	r.cols = make([]*rankCollector, nranks)
	for rank := 0; rank < nranks; rank++ {
		c := &rankCollector{checker: trace.NewStreamChecker(trace.Rank(rank), h.Regions, h.Metrics, nranks)}
		if r.need.replay {
			c.replay = callstack.NewStreamReplay(trace.Rank(rank), len(h.Regions))
		}
		if r.need.scan {
			c.scan = causality.NewRankScanner(h.Regions)
		}
		r.cols[rank] = c
	}
	r.visitErr = make([][]error, nranks)
	return r
}

// FeedEvent consumes one event of one rank's stream.
func (r *StreamRun) FeedEvent(rank int, ev trace.Event) {
	c := r.cols[rank]
	i := c.count
	c.count++
	c.checker.Feed(ev)
	if r.need.ops && (ev.Kind == trace.KindSend || ev.Kind == trace.KindRecv) {
		if c.ops == nil {
			c.ops = *opScratch.Get().(*[]opRec)
		}
		c.ops = append(c.ops, opRec{
			recv: ev.Kind == trace.KindRecv, event: int32(i), time: ev.Time,
			peer: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
		})
	}
	if c.replay != nil && c.replayErr == nil {
		c.feedReplay(r.facts.header.Regions, ev)
	}
	if c.scan != nil {
		c.scan.Feed(ev)
	}
	for vi, ai := range r.eventVis {
		if errs := r.visitErr[rank]; errs != nil && errs[vi] != nil {
			continue
		}
		if err := r.visitors[ai].VisitEvent(trace.Rank(rank), ev); err != nil {
			r.recordVisitErr(rank, vi, err)
		}
	}
}

// EndRank seals one rank's stream, publishing its summary facts.
func (r *StreamRun) EndRank(rank int) {
	c := r.cols[rank]
	f := r.facts
	f.structural[rank] = c.checker.Finish()
	f.counts[rank] = c.count
	if r.need.ops && c.ops != nil {
		out := make([]opRec, len(c.ops))
		copy(out, c.ops)
		f.ops[rank] = out
		s := c.ops[:0]
		c.ops = nil
		opScratch.Put(&s)
	}
	if c.replay != nil {
		if c.replayErr == nil {
			c.replayErr = c.replay.Finish()
		}
		f.zeros[rank] = c.zeroRegions()
		f.syncs[rank] = c.syncs
		f.replayErr[rank] = c.replayErr
	}
	if c.scan != nil {
		f.scans[rank] = c.scan
	}
	for vi, ai := range r.eventVis {
		if errs := r.visitErr[rank]; errs != nil && errs[vi] != nil {
			continue
		}
		if err := r.visitors[ai].FinishRank(trace.Rank(rank)); err != nil {
			r.recordVisitErr(rank, vi, err)
		}
	}
}

func (r *StreamRun) recordVisitErr(rank, vi int, err error) {
	if r.visitErr[rank] == nil {
		r.visitErr[rank] = make([]error, len(r.eventVis))
	}
	r.visitErr[rank][vi] = err
}

// BeginSegments computes the barrier facts (structural verdict,
// dominant selection, segmentation setup) and reports whether the
// caller must re-stream every rank through FeedSegment/EndSegmentRank
// before Finish. Call it exactly once, after every rank's EndRank.
func (r *StreamRun) BeginSegments() bool {
	r.computeBarrier()
	return r.segmenters != nil
}

func (r *StreamRun) computeBarrier() {
	if r.barrierDone {
		return
	}
	r.barrierDone = true
	f := r.facts
scanBroken:
	for _, issues := range f.structural {
		for _, is := range issues {
			if isNestingCode(is.Code) {
				f.broken = true
				break scanBroken
			}
		}
	}
	if !r.need.sel || f.broken {
		return
	}
	f.selDone = true
	for _, c := range r.cols {
		if c.replayErr != nil {
			// Replay failures surface as selection errors, exactly as on
			// dominant.Select's materialized path.
			f.dominantErr = fmt.Errorf("dominant: %w", c.replayErr)
			break
		}
	}
	if f.dominantErr == nil {
		reps := make([]*callstack.StreamReplay, f.nranks)
		for rank, c := range r.cols {
			reps[rank] = c.replay
		}
		prof := callstack.ProfileFromStreams(len(f.header.Regions), reps)
		f.dominantSel, f.dominantErr = dominant.SelectFromProfileDefs(f.header.Regions, f.nranks, prof, dominant.Options{})
	}
	if f.dominantErr != nil {
		f.segDone = true
		f.segmentsErr = f.dominantErr
		return
	}
	r.segRegion = f.dominantSel.Dominant.Region
	mask, err := segment.Prepare(f.header.Regions, r.segRegion, nil)
	if err != nil {
		f.segDone = true
		f.segmentsErr = err
		return
	}
	r.segName = f.regionName(r.segRegion)
	r.segmenters = make([]*segment.StreamSegmenter, f.nranks)
	r.segErr = make([]error, f.nranks)
	r.segRes = make([][]segment.Segment, f.nranks)
	for rank := 0; rank < f.nranks; rank++ {
		r.segmenters[rank] = segment.NewStreamSegmenter(trace.Rank(rank), r.segRegion, r.segName, mask)
	}
}

// SegmentTarget reports the region a pending segmentation pass would
// segment at (under the default synchronization classifier). ok is
// false when no segmentation pass is pending — call after BeginSegments
// returned true.
func (r *StreamRun) SegmentTarget() (trace.RegionID, bool) {
	if !r.barrierDone || r.segmenters == nil {
		return 0, false
	}
	return r.segRegion, true
}

// AdoptSegments satisfies a pending segmentation pass with per-rank
// segments computed elsewhere, sparing the re-stream through
// FeedSegment/EndSegmentRank. The caller guarantees equivalence: the
// segments must be exactly what streaming each rank through this run's
// segmenters would produce — same region (SegmentTarget), default sync
// classification, and streams whose structural validity the caller has
// already established. The fused engine adopts its single-pass
// candidate segments here when its own classifier matches lint's.
func (r *StreamRun) AdoptSegments(perRank [][]segment.Segment) {
	if r.segmenters == nil || len(perRank) != len(r.segRes) {
		return
	}
	copy(r.segRes, perRank)
}

// FeedSegment consumes one event of the second streaming pass. It
// returns false once the rank's segmenter failed — the caller may stop
// feeding that rank early (or keep feeding; extra events are ignored).
func (r *StreamRun) FeedSegment(rank int, ev trace.Event) bool {
	if r.segErr[rank] != nil {
		return false
	}
	if err := r.segmenters[rank].Feed(ev); err != nil {
		r.segErr[rank] = err
		return false
	}
	return true
}

// EndSegmentRank seals one rank of the second streaming pass.
func (r *StreamRun) EndSegmentRank(rank int) {
	if r.segErr[rank] != nil {
		return
	}
	segs, err := r.segmenters[rank].Finish()
	if err != nil {
		r.segErr[rank] = err
		return
	}
	r.segRes[rank] = segs
}

func (r *StreamRun) finishSegments() {
	f := r.facts
	if f.segDone {
		return
	}
	f.segDone = true
	if r.segmenters == nil {
		f.segmentsErr = errFactUnavailable
		return
	}
	for rank := 0; rank < f.nranks; rank++ {
		if err := r.segErr[rank]; err != nil {
			// Lowest failing rank wins, matching segment.Compute's
			// parallel error selection.
			f.segmentsErr = err
			return
		}
	}
	m := &segment.Matrix{Region: r.segRegion, RegionName: r.segName, PerRank: make([][]segment.Segment, f.nranks)}
	for rank := range r.segRes {
		m.PerRank[rank] = r.segRes[rank]
	}
	f.segments = m
}

// Finish runs the analyzers' Finish hooks and collects the sorted
// result. Cancellation is checked between analyzers; a cancelled run
// returns nil with ctx.Err() — partial diagnostics are discarded rather
// than passed off as a full lint.
func (r *StreamRun) Finish(ctx context.Context) (*Result, error) {
	r.computeBarrier()
	r.finishSegments()

	res := &Result{TraceName: r.facts.header.Name}
	for _, a := range r.analyzers {
		res.Analyzers = append(res.Analyzers, a.Name())
	}

	// Fan the Finish hooks out on the shared worker pool, cross-rank
	// analyzers first: they trigger the expensive lazy facts (message
	// matching, the dependency graph) early while per-rank reporters
	// fill the remaining workers. The permutation cannot change the
	// output — diagnostics are sorted before the result is returned.
	order := make([]int, 0, len(r.analyzers))
	for i, a := range r.analyzers {
		if a.Scope() == ScopeCrossRank {
			order = append(order, i)
		}
	}
	for i, a := range r.analyzers {
		if a.Scope() != ScopeCrossRank {
			order = append(order, i)
		}
	}
	// ForEachAll never skips an analyzer on failure; a failing analyzer
	// is converted into its own diagnostic rather than aborting the run.
	errs := parallel.ForEachAllCtx(ctx, len(order), func(oi int) error {
		i := order[oi]
		if err := r.feedError(i); err != nil {
			// The visitor already failed during the streaming pass:
			// surface that error instead of running Finish on a visitor
			// with inconsistent state.
			return err
		}
		return r.visitors[i].Finish()
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for oi, err := range errs {
		if err != nil {
			r.passes[order[oi]].Report(Diagnostic{
				Code: "analyzer-error", Severity: SeverityError, Rank: -1, Event: -1,
				Message: sprintf("analyzer failed: %v", err),
			})
		}
	}

	for _, p := range r.passes {
		for _, d := range p.diags {
			if d.Severity >= r.opts.MinSeverity {
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
	}
	sortNames(res.Analyzers)
	res.sortDiagnostics()
	return res, nil
}

// feedError returns the first (lowest-rank) error an analyzer's visitor
// hit during the streaming pass, or nil.
func (r *StreamRun) feedError(i int) error {
	vi := r.evIndex[i]
	if vi < 0 {
		return nil
	}
	for rank := 0; rank < r.facts.nranks; rank++ {
		if errs := r.visitErr[rank]; errs != nil && errs[vi] != nil {
			return errs[vi]
		}
	}
	return nil
}

// feedReplay advances the rank's call-stack replay by ev and derives the
// zero-duration and sync-depth facts from the open frame read before the
// event: the depth an enter lands at, and the enter time of the
// invocation a leave closes. A zero-duration invocation is one whose
// leave time equals its enter time; zero-duration invocations of one
// region nest only at a single timestamp, so the first one to close has
// the enter time of the first one entered.
func (c *rankCollector) feedReplay(regions []trace.Region, ev trace.Event) {
	depth := c.replay.Depth()
	_, enter, _, _ := c.replay.Top()
	if c.replayErr = c.replay.Feed(ev); c.replayErr != nil {
		return
	}
	switch ev.Kind {
	case trace.KindEnter:
		if role := regions[ev.Region].Role; role == trace.RoleBarrier || role == trace.RoleCollective {
			key := SyncDepth{Region: ev.Region, Depth: int16(depth)}
			if !c.syncSeen[key] {
				if c.syncSeen == nil {
					c.syncSeen = make(map[SyncDepth]bool)
				}
				c.syncSeen[key] = true
				c.syncs = append(c.syncs, key)
			}
		}
	case trace.KindLeave:
		if ev.Time != enter {
			return
		}
		if z := c.zeros[ev.Region]; z != nil {
			z.Count++
			return
		}
		if c.zeros == nil {
			c.zeros = make(map[trace.RegionID]*ZeroRegion)
		}
		c.zeros[ev.Region] = &ZeroRegion{Region: ev.Region, Count: 1, First: enter}
	}
}

// zeroRegions returns the rank's zero-duration aggregates sorted by
// region id.
func (c *rankCollector) zeroRegions() []ZeroRegion {
	if len(c.zeros) == 0 {
		return nil
	}
	out := make([]ZeroRegion, 0, len(c.zeros))
	for _, z := range c.zeros {
		out = append(out, *z)
	}
	sortSlice(out, func(a, b ZeroRegion) bool { return a.Region < b.Region })
	return out
}
