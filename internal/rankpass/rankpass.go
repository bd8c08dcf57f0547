// Package rankpass is the one per-rank pass over a trace's event
// streams. The paper's method is one chain per rank — replay the call
// stack, pick the dominant function from the merged profile, cut its
// segments — and the analysis engine, the lint run and the
// dependency-graph build each stream a rank through this pass once,
// switching on the consumers they read (Config). A rank streams a
// decoded run of events at a time, and the pass feeds each event of the
// run to its consumers; an absent consumer costs a nil check per event.
// The call-stack replay is the pass's only stack walk: the candidate
// sets cut their segments from the invocations it closes.
//
// A replay error is recorded on its rank, which streams on for the
// consumers that need no replay, unless Config.Stop ends it and fails
// the pass. The candidate sets reject nothing: the replay has rejected
// every event they would. A stream error always fails the pass.
// Segments is the one place that streams the ranks a second time: when
// a rank evicted the region asked for, or the caller's sync mask is not
// the pass's.
package rankpass

import (
	"context"
	"errors"
	"slices"
	"sync"

	"perfvar/internal/callstack"
	"perfvar/internal/causality"
	"perfvar/internal/chunk"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// Streams is the per-rank event-stream view the pass consumes.
type Streams interface {
	// Header returns the trace definitions.
	Header() *trace.Header
	// NumRanks returns the number of ranks.
	NumRanks() int
	// StreamRank replays one rank's events in stream order; it may be
	// called concurrently for different ranks. A trace.ErrStopStream
	// return from fn ends the rank without error.
	StreamRank(rank int, fn func(trace.Event) error) error
}

// Config selects the consumers the pass feeds.
type Config struct {
	// Replay feeds every rank to a callstack.StreamReplay.
	Replay bool
	// Track selects the regions a segment.CandidateSet per rank segments
	// at under SyncMask, within Budget records (<= 0: the default); nil
	// runs none. The sets are fed the invocations the replay closes,
	// with their sync time under SyncMask, so they need Replay.
	Track, SyncMask []bool
	Budget          int
	// Intervals is the region mask whose maximal intervals every rank
	// records; nil records none. It sees only replayed events, so it too
	// needs Replay.
	Intervals []bool
	// Scan feeds every rank to a causality.RankScanner.
	Scan bool
	// Ops records every rank's send and receive op records.
	Ops bool
	// Stop ends a rank at its first replay error and fails the pass
	// with it, for a caller with no use for such a rank.
	Stop bool
	// Hook, when set, returns the caller's own consumer of one rank.
	Hook func(rank int, r *Rank) Hook
}

// Hook is a caller's own consumer of one rank's stream.
type Hook interface {
	// Feed sees one event before the rank's replay does, so it can read
	// the replay's open frame (Depth, Top) the event lands on.
	Feed(ev trace.Event)
	// End runs after the rank's last event, once the Rank is final.
	End()
}

// Rank is what the pass collected from one rank.
type Rank struct {
	Events    int                     // events streamed
	Replay    *callstack.StreamReplay // finished unless ReplayErr is set
	ReplayErr error                   // the first event it rejected, or its Finish error
	Cand      *segment.CandidateSet
	Intervals chunk.List[[2]trace.Time] // (start, end), pooled until Release
	Scan      *causality.RankScanner
	Ops       []clockfix.Op // at exact size; nil when the rank has none

	ops []clockfix.Op // pooled scratch while the rank streams
}

// Pass is a finished pass over every rank.
type Pass struct {
	Ranks []*Rank
	src   Streams
	mask  []bool // the candidate sets' sync mask
	// The last Segments answer, handed out again for the same request.
	lastRegion trace.RegionID
	lastMask   []bool
	last       [][]segment.Segment
}

var intervalChunks chunk.Pool[[2]trace.Time]

// opScratch pools per-rank op accumulation buffers. A rank's ops are
// appended here while it streams and copied out at exact size at its
// end, so the append-doubling garbage is paid only while the pool warms
// up (one buffer per concurrently streamed rank), not once per rank.
var opScratch = sync.Pool{New: func() any { s := make([]clockfix.Op, 0, 512); return &s }}

// runStreams is implemented by streams that hand a rank's events over a
// decoded run at a time (trace.RankStreams, trace.DirStreams,
// trace.Trace); a run is valid only during the call.
type runStreams interface {
	StreamRuns(rank int, fn func([]trace.Event) error) error
}

// runLen is the length of the runs streamRuns gathers a per-event
// source's events into: the archive decoders' run length.
const runLen = 128

// runBufs pools the run buffers of per-event sources. A run handed to
// the pass's callback escapes, so a buffer per stream would be a heap
// allocation per rank.
var runBufs = sync.Pool{New: func() any { return new([runLen]trace.Event) }}

// streamRuns streams rank of src through fn a run at a time: the
// source's own runs when it has them, otherwise — a synthetic
// generator, a clock-shifted or other per-event source — its events
// gathered into a pooled run, the one adapter at the boundary.
func streamRuns(src Streams, rank int, fn func([]trace.Event) error) error {
	if rs, ok := src.(runStreams); ok {
		return rs.StreamRuns(rank, fn)
	}
	buf := runBufs.Get().(*[runLen]trace.Event)
	defer runBufs.Put(buf)
	n, stopped := 0, false
	err := src.StreamRank(rank, func(ev trace.Event) error {
		buf[n] = ev
		if n++; n < runLen {
			return nil
		}
		n = 0
		err := fn(buf[:])
		stopped = err != nil
		return err
	})
	if err != nil || stopped || n == 0 {
		return err
	}
	if err := fn(buf[:n]); !errors.Is(err, trace.ErrStopStream) {
		return err
	}
	return nil
}

// Run streams every rank of src once through the consumers cfg selects,
// on the shared worker pool. It fails with the lowest failing rank's
// stream error (or, under Config.Stop, its replay error),
// or with ctx.Err(); a failed pass has released its pooled chunks. The
// caller of a successful pass calls Release once it has taken what it
// keeps.
func Run(ctx context.Context, src Streams, cfg Config) (*Pass, error) {
	p := &Pass{Ranks: make([]*Rank, src.NumRanks()), src: src, mask: cfg.SyncMask}
	err := parallel.ForEachCtx(ctx, len(p.Ranks), func(rank int) error {
		r := &Rank{}
		p.Ranks[rank] = r
		return r.stream(src, rank, &cfg)
	})
	if err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// stream runs one rank through the consumers.
func (r *Rank) stream(src Streams, rank int, cfg *Config) error {
	regions := src.Header().Regions
	if cfg.Replay {
		// The candidate sets take their sync time from the replay's
		// frames, so a pass that segments measures it under their mask.
		if cfg.Track != nil {
			r.Replay = callstack.NewSyncReplay(trace.Rank(rank), cfg.SyncMask)
		} else {
			r.Replay = callstack.NewStreamReplay(trace.Rank(rank), len(regions))
		}
	}
	if cfg.Track != nil {
		r.Cand = segment.NewCandidateSet(trace.Rank(rank), cfg.Track, cfg.SyncMask, cfg.Budget)
	}
	var intervals *callstack.IntervalRecorder
	if cfg.Intervals != nil {
		intervals = callstack.NewIntervalRecorder(cfg.Intervals)
		r.Intervals = chunk.NewList(&intervalChunks)
	}
	if cfg.Scan {
		r.Scan = causality.NewRankScanner(regions)
	}
	var hook Hook
	if cfg.Hook != nil {
		hook = cfg.Hook(rank, r)
	}
	recordOps, stop := cfg.Ops, cfg.Stop
	if recordOps {
		sp := opScratch.Get().(*[]clockfix.Op)
		r.ops = (*sp)[:0]
		defer func() {
			*sp = r.ops[:0]
			r.ops = nil
			opScratch.Put(sp)
		}()
	}

	// The consumers are locals the closure reads, not fields of r. The
	// closure runs once per run of events, and the loop inside it is the
	// per-event body.
	rep, cand, scan := r.Replay, r.Cand, r.Scan
	err := streamRuns(src, rank, func(run []trace.Event) error {
		events, replaying := r.Events, rep != nil && r.ReplayErr == nil
		defer func() { r.Events = events }()
		for _, ev := range run {
			if hook != nil {
				hook.Feed(ev)
			}
			if recordOps {
				if op, ok := clockfix.OpOf(events, ev); ok {
					r.ops = append(r.ops, op)
				}
			}
			events++
			if scan != nil {
				scan.Feed(ev)
			}
			if !replaying {
				continue
			}
			// Replay first: it validates structure, so the consumers
			// after it only ever see events of a well-formed stream.
			if err := rep.Feed(ev); err != nil {
				r.ReplayErr, replaying = err, false
				if stop {
					return err
				}
				continue
			}
			// The candidate sets cut segments from the invocations the
			// replay closes: the replay's stack is the only one walked.
			if cand != nil && ev.Kind == trace.KindLeave {
				cand.Add(rep.Closed())
			}
			if intervals != nil {
				if from, to, ok := intervals.Feed(ev.Kind, ev.Region, ev.Time); ok {
					r.Intervals.Append([2]trace.Time{from, to})
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rep != nil && r.ReplayErr == nil {
		if r.ReplayErr = rep.Finish(); r.ReplayErr != nil && stop {
			return r.ReplayErr
		}
	}
	if len(r.ops) > 0 {
		r.Ops = slices.Clone(r.ops)
	}
	if hook != nil {
		hook.End()
	}
	return nil
}

// Release hands every rank's candidate and interval chunks back to
// their pools, rank by rank on the worker pool. Segments results are
// copies and stay valid.
func (p *Pass) Release() {
	parallel.Do(len(p.Ranks), func(rank int) {
		r := p.Ranks[rank]
		if r == nil {
			return
		}
		if r.Cand != nil {
			r.Cand.Release()
		}
		r.Intervals.Release()
	})
}

// Replays returns every rank's replay, in rank order.
func (p *Pass) Replays() []*callstack.StreamReplay {
	reps := make([]*callstack.StreamReplay, len(p.Ranks))
	for rank, r := range p.Ranks {
		reps[rank] = r.Replay
	}
	return reps
}

// Segments returns every rank's segments of region under syncMask (from
// segment.SyncMask or segment.Prepare; name labels the region in
// errors). They are copied out of the candidate sets when the pass
// segmented under an equal mask and no rank evicted region; otherwise
// every rank is streamed again through a segment.StreamSegmenter, the
// pass's one fallback. The same request as the last one returns the
// same slices, so the engine and a fused lint run that segment alike
// share one copy, or one re-stream.
func (p *Pass) Segments(ctx context.Context, region trace.RegionID, name string, syncMask []bool) ([][]segment.Segment, error) {
	if p.last != nil && p.lastRegion == region && slices.Equal(p.lastMask, syncMask) {
		return p.last, nil
	}
	perRank, ok := make([][]segment.Segment, len(p.Ranks)), slices.Equal(p.mask, syncMask)
	for rank := 0; ok && rank < len(p.Ranks); rank++ {
		r := p.Ranks[rank]
		if ok = r.Cand != nil; ok {
			perRank[rank], ok = r.Cand.Segments(region)
		}
	}
	if !ok {
		var err error
		perRank, err = parallel.MapCtx(ctx, len(p.Ranks), func(rank int) ([]segment.Segment, error) {
			seg := segment.NewStreamSegmenter(trace.Rank(rank), region, name, syncMask)
			if err := p.src.StreamRank(rank, seg.Feed); err != nil {
				seg.Finish() // hands the segmenter's chunks back
				return nil, err
			}
			return seg.Finish()
		})
		if err != nil {
			return nil, err
		}
	}
	p.lastRegion, p.lastMask, p.last = region, syncMask, perRank
	return perRank, nil
}
