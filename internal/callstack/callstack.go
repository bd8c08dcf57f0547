// Package callstack replays enter/leave event streams into call stacks.
// One kernel, StreamReplay, folds each rank's events into inclusive and
// exclusive times per region (the distinction of the paper's Figure 1).
// The flat per-region profile used by dominant-function selection, the
// per-rank profiles of the profiler baseline and the calling-context tree
// are all computed from it.
// IntervalRecorder finds the maximal intervals a rank spends inside a set
// of regions, such as MPI or synchronization.
package callstack

import (
	"context"
	"fmt"
	"math"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// StreamReplay's structural limits: invocation counts and call-stack
// depths beyond these bounds are rejected with a *LimitError, so that
// consumers may store depths as int16.
const (
	// MaxInvocations is the largest per-rank invocation count replay
	// supports.
	MaxInvocations = math.MaxInt32
	// MaxDepth is the deepest call stack replay supports.
	MaxDepth = math.MaxInt16
)

// LimitError reports a stream that exceeds one of replay's structural
// limits (MaxInvocations or MaxDepth).
type LimitError struct {
	Rank  trace.Rank
	What  string // "invocations" or "call-stack depth"
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("callstack: rank %d: %s exceed the representable maximum %d", e.Rank, e.What, e.Limit)
}

// RegionProfile aggregates all invocations of one region.
type RegionProfile struct {
	Region trace.RegionID
	// Count is the total number of invocations across all ranks.
	Count int64
	// SumInclusive is the summed inclusive time of all non-recursive
	// invocations. Skipping self-nested invocations keeps the aggregate
	// meaningful for recursive functions (each wall-clock interval is
	// counted once).
	SumInclusive trace.Duration
	// SumExclusive is the summed exclusive time of all invocations.
	SumExclusive trace.Duration
	// MaxInclusive is the largest single inclusive time observed.
	MaxInclusive trace.Duration
	// MinInclusive is the smallest single inclusive time observed.
	MinInclusive trace.Duration
	// Ranks is the number of distinct ranks that invoked the region.
	Ranks int
}

// Profile is a flat per-region aggregation over a whole trace — the
// information a parallel profiler (TAU, HPCToolkit) would report.
type Profile struct {
	Regions []RegionProfile // indexed by RegionID
	// TotalTime is the summed wall-clock span of all ranks (sum over ranks
	// of last-event minus first-event time).
	TotalTime trace.Duration
}

// rankProfile is one rank's contribution to the flat profile.
type rankProfile struct {
	regions []RegionProfile // MinInclusive -1 marks "not observed"
	seen    []bool          // region invoked on this rank
}

func newRankProfile(nregions int) rankProfile {
	part := rankProfile{
		regions: make([]RegionProfile, nregions),
		seen:    make([]bool, nregions),
	}
	for id := range part.regions {
		part.regions[id].MinInclusive = -1
	}
	return part
}

// ProfileFromStreams merges finished per-rank accumulators, in rank
// order, into the flat profile. All aggregations are exact integer sums
// and min/max folds, so the result does not depend on how the ranks were
// scheduled.
func ProfileFromStreams(nregions int, parts []*StreamReplay) *Profile {
	p := &Profile{Regions: make([]RegionProfile, nregions)}
	for id := range p.Regions {
		p.Regions[id].Region = trace.RegionID(id)
		p.Regions[id].MinInclusive = -1
	}
	for _, sr := range parts {
		for id := range p.Regions {
			src, dst := &sr.part.regions[id], &p.Regions[id]
			dst.Count += src.Count
			dst.SumInclusive += src.SumInclusive
			dst.SumExclusive += src.SumExclusive
			if src.MaxInclusive > dst.MaxInclusive {
				dst.MaxInclusive = src.MaxInclusive
			}
			if src.MinInclusive >= 0 && (dst.MinInclusive < 0 || src.MinInclusive < dst.MinInclusive) {
				dst.MinInclusive = src.MinInclusive
			}
			if sr.part.seen[id] {
				dst.Ranks++
			}
		}
		if sr.events > 0 {
			p.TotalTime += sr.last - sr.first
		}
	}
	for id := range p.Regions {
		if p.Regions[id].MinInclusive < 0 {
			p.Regions[id].MinInclusive = 0
		}
	}
	return p
}

// ReplayTrace feeds every rank of the in-memory trace tr through its own
// StreamReplay, fanning the ranks out with parallel.MapCtx, and returns
// the finished accumulators in rank order. On failure it returns the
// error of the lowest failing rank, the one a serial rank loop would
// report; a cancelled ctx stops the fan-out between ranks.
func ReplayTrace(ctx context.Context, tr *trace.Trace) ([]*StreamReplay, error) {
	return parallel.MapCtx(ctx, tr.NumRanks(), func(rank int) (*StreamReplay, error) {
		rep := NewStreamReplay(trace.Rank(rank), len(tr.Regions))
		for _, ev := range tr.Procs[rank].Events {
			if err := rep.Feed(ev); err != nil {
				return nil, err
			}
		}
		return rep, rep.Finish()
	})
}

// ProfileOf returns the flat profile of the in-memory trace tr, replayed
// by ReplayTrace.
func ProfileOf(ctx context.Context, tr *trace.Trace) (*Profile, error) {
	reps, err := ReplayTrace(ctx, tr)
	if err != nil {
		return nil, err
	}
	return ProfileFromStreams(len(tr.Regions), reps), nil
}
