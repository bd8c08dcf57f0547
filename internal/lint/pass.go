package lint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// Pass connects one analyzer run to the summary facts shared by all
// analyzers of the same lint run. The facts — structural issues,
// per-rank op summaries, replay-derived aggregates, and the
// barrier-computed dominant selection and segmentation — are maintained
// by the streaming driver while the event streams flow by, so the same
// Pass backs both the materialized and the streaming runner and
// analyzer logic is written once against facts, never against raw event
// storage. Reporting is goroutine-safe.
type Pass struct {
	analyzer Analyzer
	facts    *facts

	mu    sync.Mutex
	diags []Diagnostic
}

// Report records one finding. An empty Analyzer field is filled from
// the reporting analyzer.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.analyzer.Name()
	}
	p.mu.Lock()
	p.diags = append(p.diags, d)
	p.mu.Unlock()
}

// Reportf records one finding from its parts. Pass event -1 when the
// finding is not tied to a single event and rank -1 for trace-global
// findings.
func (p *Pass) Reportf(sev Severity, code string, rank trace.Rank, event int, t trace.Time, format string, args ...any) {
	p.Report(Diagnostic{
		Code: code, Severity: sev, Rank: rank, Event: event, Time: t,
		Message: sprintf(format, args...),
	})
}

// errFactUnavailable reports a fact the driver did not compute for this
// run — either the trace is structurally broken (selection and
// segmentation are skipped) or no requested analyzer needed the fact.
var errFactUnavailable = errors.New("lint: fact not computed in this run")

// Header returns the trace header: name plus region and metric
// definitions. Always available, even for streaming runs.
func (p *Pass) Header() *trace.Header { return p.facts.header }

// NumRanks returns the number of ranks of the linted trace.
func (p *Pass) NumRanks() int { return p.facts.nranks }

// MinLatency returns the assumed minimal network latency used by
// message-causality checks.
func (p *Pass) MinLatency() trace.Duration { return p.facts.minLatency }

// RegionName resolves a region id to its name, with a stable
// placeholder for undefined ids.
func (p *Pass) RegionName(id trace.RegionID) string { return p.facts.regionName(id) }

// Structural returns all structural violations of one rank (the
// trace.StreamChecker facts, accumulated while the rank streamed).
func (p *Pass) Structural(rank trace.Rank) []trace.Issue {
	return p.facts.structural[rank]
}

// StructurallyBroken reports whether any rank has a nesting/ordering
// violation that makes call-tree replays unreliable. Semantic analyzers
// use it to skip work that the nesting analyzer already explains.
func (p *Pass) StructurallyBroken() bool { return p.facts.broken }

// EventCounts returns the per-rank event counts. Callers must not
// modify the slice.
func (p *Pass) EventCounts() []int { return p.facts.counts }

// Messages returns the FIFO-matched send/recv pairs plus the events that
// found no partner.
func (p *Pass) Messages() *Messages {
	p.facts.messagesOnce.Do(p.facts.computeMessages)
	return &p.facts.messages
}

// ClockPairs returns the matched send/recv timestamp pairs used by
// clock-skew analysis, unsorted, in the order of the Messages facts'
// pairs (clockfix.MatchedPairs). Nothing read off them depends on their
// order: clockfix.ViolationsFromPairs sorts the violations it finds, and
// offset relaxation converges, or runs out of sweeps, whatever the order.
func (p *Pass) ClockPairs() []clockfix.Pair {
	p.facts.clockOnce.Do(func() { p.facts.clockPairs = clockfix.MatchedPairs(p.Messages()) })
	return p.facts.clockPairs
}

// ZeroDurations returns one rank's zero-duration invocation aggregates,
// sorted by region id, or an error when the rank's stream does not
// replay into proper call stacks.
func (p *Pass) ZeroDurations(rank trace.Rank) ([]ZeroRegion, error) {
	if err := p.facts.replayErr[rank]; err != nil {
		return nil, err
	}
	return p.facts.zeros[rank], nil
}

// SyncDepths returns one rank's distinct (synchronization region, stack
// depth) observations in first-enter order, or an error when the rank's
// stream does not replay into proper call stacks.
func (p *Pass) SyncDepths(rank trace.Rank) ([]SyncDepth, error) {
	if err := p.facts.replayErr[rank]; err != nil {
		return nil, err
	}
	return p.facts.syncs[rank], nil
}

// Dominant returns the dominant-function selection of the trace. The
// error is dominant.ErrNoCandidate when no function clears the 2p
// threshold, or a replay error for broken traces.
func (p *Pass) Dominant() (dominant.Selection, error) {
	if !p.facts.selDone {
		return dominant.Selection{}, errFactUnavailable
	}
	return p.facts.dominantSel, p.facts.dominantErr
}

// Segments returns the segment matrix cut at the dominant function, or
// an error when no dominant function exists.
func (p *Pass) Segments() (*segment.Matrix, error) {
	return p.facts.segments, p.facts.segmentsErr
}

// Dependencies returns the cross-rank message-dependency graph built
// from the message-matching facts and the dominant-function segment
// matrix, or the segmentation error when the trace cannot be segmented.
func (p *Pass) Dependencies() (*causality.Graph, error) {
	p.facts.depsOnce.Do(p.facts.computeDeps)
	return p.facts.deps, p.facts.depsErr
}

// ZeroRegion aggregates one region's zero-duration invocations on one
// rank.
type ZeroRegion struct {
	Region trace.RegionID
	// Count is the number of zero-duration invocations.
	Count int
	// First is the enter time of the earliest (in enter order) such
	// invocation.
	First trace.Time
}

// SyncDepth is one distinct (synchronization region, stack depth)
// observation on one rank.
type SyncDepth struct {
	Region trace.RegionID
	Depth  int16
}

// MsgRef, MsgPair and Messages are the message-matching facts; the one
// FIFO matcher lives in clockfix.
type (
	MsgRef   = clockfix.MsgRef
	MsgPair  = clockfix.MsgPair
	Messages = clockfix.Messages
)

// facts holds the shared summary facts of one run. The streaming driver
// fills the per-rank fields as each rank's stream ends and the barrier
// fields (selection, segments) after the pass; the lazy fields compute
// on first use. Analyzer Finish hooks run after the barrier, so no
// locking is needed beyond the sync.Once fields.
type facts struct {
	header     *trace.Header
	nranks     int
	minLatency trace.Duration

	structural [][]trace.Issue
	broken     bool

	counts []int
	ops    [][]clockfix.Op

	zeros     [][]ZeroRegion
	syncs     [][]SyncDepth
	replayErr []error

	scans []*causality.RankScanner

	selDone     bool
	dominantSel dominant.Selection
	dominantErr error

	segments    *segment.Matrix
	segmentsErr error

	messagesOnce sync.Once
	messages     Messages

	clockOnce  sync.Once
	clockPairs []clockfix.Pair

	depsOnce sync.Once
	deps     *causality.Graph
	depsErr  error
}

func (f *facts) regionName(id trace.RegionID) string {
	if id >= 0 && int(id) < len(f.header.Regions) {
		return f.header.Regions[id].Name
	}
	return sprintf("region(%d)", id)
}

func (f *facts) computeMessages() {
	f.messages = clockfix.Match(f.nranks, f.ops)
}

func (f *facts) computeDeps() {
	if f.segmentsErr != nil {
		f.depsErr = f.segmentsErr
		return
	}
	if f.scans == nil {
		f.depsErr = errFactUnavailable
		return
	}
	f.messagesOnce.Do(f.computeMessages)
	// Analyzer Finish hooks take no context; the build cannot fail
	// without one.
	f.deps, _ = dependencyGraph(context.Background(), f.segments, f.scans, &f.messages)
}
