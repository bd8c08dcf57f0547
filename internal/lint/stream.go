package lint

import (
	"context"
	"fmt"

	"perfvar/internal/callstack"
	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
)

// StreamRun is the incremental lint driver. It plugs its consumers into
// the one per-rank pass (internal/rankpass): Configure switches on the
// pass consumers its analyzers read — replay, candidate segmentation,
// causality scanning and op records — and adds a per-rank collector
// that feeds the structural checker, the event visitors and the
// zero-duration and sync-depth facts. Finish then derives the barrier
// facts (structural verdict, dominant selection, segments) from the
// pass and collects the diagnostics. Both runner entry points (Run over
// a materialized trace, RunSource over a Source) drive it, and so does
// AnalyzeSource with Options.Lint, whose one pass serves the pipeline
// and the lint run.
//
// Feeding never fails: a rank that does not replay keeps streaming for
// the consumers that do not need a replay, and analyzer errors are
// recorded and surface as error-severity diagnostics at Finish, so a
// fused caller's own analysis is never aborted by lint.
type StreamRun struct {
	analyzers []Analyzer
	opts      Options
	facts     *facts
	need      needs

	passes   []*Pass
	visitors []StreamVisitor
	eventVis []int // indices into visitors that consume the event feed
	evIndex  []int // analyzer index -> position in eventVis, or -1

	visitErr [][]error // [rank][len(eventVis)], allocated on first error
}

// needs lists the summary facts the requested analyzer set consumes, so
// the pass runs no consumer nobody reads. Unknown (external) analyzer
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

// rankCollector is the lint run's consumer of one rank's stream in the
// shared pass. All state is rank-local, so collectors run lock-free
// under the pass's one-goroutine-per-rank contract.
type rankCollector struct {
	run      *StreamRun
	rank     int
	pass     *rankpass.Rank
	checker  *trace.StreamChecker
	zeros    map[trace.RegionID]*ZeroRegion
	syncs    []SyncDepth
	syncSeen map[SyncDepth]bool
}

// cacheLinePad ends per-rank state that a worker updates on every event
// (event counters above all), so that ranks streamed concurrently never
// share a cache line and invalidate each other's on every event.
type cacheLinePad [64]byte

// NewStreamRun prepares an incremental lint run over a trace with the
// given header and rank count. Options are interpreted exactly as by
// Run.
func NewStreamRun(h *trace.Header, nranks int, opts Options) *StreamRun {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	minLatency := opts.MinLatency
	if minLatency <= 0 {
		minLatency = DefaultMinLatency
	}
	f := &facts{
		header: h, nranks: nranks, minLatency: minLatency,
		structural: make([][]trace.Issue, nranks),
		counts:     make([]int, nranks),
		zeros:      make([][]ZeroRegion, nranks),
		syncs:      make([][]SyncDepth, nranks),
		replayErr:  make([]error, nranks),
	}
	r := &StreamRun{analyzers: analyzers, opts: opts, facts: f, need: needsOf(analyzers)}
	if r.need.ops {
		f.ops = make([][]clockfix.Op, nranks)
	}
	if r.need.scan {
		f.scans = make([]*causality.RankScanner, nranks)
	}
	r.passes = make([]*Pass, len(analyzers))
	r.visitors = make([]StreamVisitor, len(analyzers))
	r.evIndex = make([]int, len(analyzers))
	for i, a := range analyzers {
		p := &Pass{analyzer: a, facts: f}
		r.passes[i] = p
		v := a.Stream(p)
		r.visitors[i] = v
		r.evIndex[i] = -1
		if _, skip := v.(interface{ passive() }); !skip {
			r.evIndex[i] = len(r.eventVis)
			r.eventVis = append(r.eventVis, i)
		}
	}
	r.visitErr = make([][]error, nranks)
	return r
}

// Configure switches on the pass consumers the run's analyzers read and
// plugs the run's per-rank collector into cfg. Consumers cfg already has
// stay on. When selection is needed and cfg segments nowhere yet, the
// pass segments at every user-paradigm region under the default sync
// mask, where the dominant selection can land.
func (r *StreamRun) Configure(cfg *rankpass.Config) {
	cfg.Replay = cfg.Replay || r.need.replay
	cfg.Scan = cfg.Scan || r.need.scan
	cfg.Ops = cfg.Ops || r.need.ops
	if r.need.sel && cfg.Track == nil {
		regions := r.facts.header.Regions
		cfg.SyncMask = segment.SyncMask(regions, nil)
		cfg.Track = make([]bool, len(regions))
		for i, reg := range regions {
			cfg.Track[i] = reg.Paradigm == trace.ParadigmUser && !cfg.SyncMask[i]
		}
	}
	h := r.facts.header
	cfg.Hook = func(rank int, pr *rankpass.Rank) rankpass.Hook {
		return &rankCollector{
			run: r, rank: rank, pass: pr,
			checker: trace.NewStreamChecker(trace.Rank(rank), h.Regions, h.Metrics, r.facts.nranks),
		}
	}
}

// Feed consumes one event of the collector's rank, before the pass's
// replay does.
func (c *rankCollector) Feed(ev trace.Event) {
	r := c.run
	c.checker.Feed(ev)
	if r.need.replay && c.pass.ReplayErr == nil {
		c.stackFacts(r.facts.header.Regions, ev)
	}
	rank := c.rank
	for vi, ai := range r.eventVis {
		if errs := r.visitErr[rank]; errs != nil && errs[vi] != nil {
			continue
		}
		if err := r.visitors[ai].VisitEvent(trace.Rank(rank), ev); err != nil {
			r.recordVisitErr(rank, vi, err)
		}
	}
}

// End seals the collector's rank, publishing its summary facts.
func (c *rankCollector) End() {
	r, f, rank := c.run, c.run.facts, c.rank
	f.structural[rank] = c.checker.Finish()
	f.counts[rank] = c.pass.Events
	if r.need.ops {
		f.ops[rank] = c.pass.Ops
	}
	if r.need.replay {
		f.zeros[rank] = c.zeroRegions()
		f.syncs[rank] = c.syncs
		f.replayErr[rank] = c.pass.ReplayErr
	}
	if r.need.scan {
		f.scans[rank] = c.pass.Scan
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

// barrier derives the facts that need every rank: the structural
// verdict, the dominant selection, and the segments cut at it. The
// segments come from the pass's candidate sets, or from its one
// re-stream when those do not hold them; only a failure of that
// re-stream is returned.
func (r *StreamRun) barrier(ctx context.Context, p *rankpass.Pass) error {
	f := r.facts
	f.segmentsErr = errFactUnavailable
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
		return nil
	}
	f.selDone = true
	for _, err := range f.replayErr {
		if err != nil {
			// Replay failures surface as selection errors, exactly as on
			// dominant.Select's materialized path.
			f.dominantErr = fmt.Errorf("dominant: %w", err)
			break
		}
	}
	if f.dominantErr == nil {
		prof := callstack.ProfileFromStreams(len(f.header.Regions), p.Replays())
		f.dominantSel, f.dominantErr = dominant.SelectFromProfileDefs(f.header.Regions, f.nranks, prof, dominant.Options{})
	}
	if f.dominantErr != nil {
		f.segmentsErr = f.dominantErr
		return nil
	}
	region := f.dominantSel.Dominant.Region
	mask, err := segment.Prepare(f.header.Regions, region, nil)
	if err != nil {
		f.segmentsErr = err
		return nil
	}
	name := f.regionName(region)
	perRank, err := p.Segments(ctx, region, name, mask)
	if err != nil {
		return err
	}
	f.segments = &segment.Matrix{Region: region, RegionName: name, PerRank: perRank}
	f.segmentsErr = nil
	return nil
}

// Finish derives the barrier facts from p, the pass the run was
// configured into, then runs the analyzers' Finish hooks and collects
// the sorted result. Call it once, before p is released. Cancellation is
// checked between analyzers; a cancelled run returns nil with ctx.Err()
// — partial diagnostics are discarded rather than passed off as a full
// lint.
func (r *StreamRun) Finish(ctx context.Context, p *rankpass.Pass) (*Result, error) {
	if err := r.barrier(ctx, p); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}

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
	// ForEachAllCtx never skips an analyzer on failure; a failing analyzer
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

// stackFacts derives the zero-duration and sync-depth facts of ev from
// the open frame of the rank's replay, read before the pass feeds ev to
// it: the depth an enter lands at, and the enter time of the invocation
// a leave closes. A zero-duration invocation is one whose leave time
// equals its enter time; zero-duration invocations of one region nest
// only at a single timestamp, so the first one to close has the enter
// time of the first one entered. An event the replay then rejects may
// leave a stray fact behind, but a rank that does not replay publishes
// its replay error, which hides every such fact.
func (c *rankCollector) stackFacts(regions []trace.Region, ev trace.Event) {
	rep := c.pass.Replay
	switch ev.Kind {
	case trace.KindEnter:
		if uint(ev.Region) >= uint(len(regions)) {
			return
		}
		if role := regions[ev.Region].Role; role == trace.RoleBarrier || role == trace.RoleCollective {
			key := SyncDepth{Region: ev.Region, Depth: int16(rep.Depth())}
			if !c.syncSeen[key] {
				if c.syncSeen == nil {
					c.syncSeen = make(map[SyncDepth]bool)
				}
				c.syncSeen[key] = true
				c.syncs = append(c.syncs, key)
			}
		}
	case trace.KindLeave:
		_, enter, _, ok := rep.Top()
		if !ok || ev.Time != enter {
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
