package callstack

import (
	"fmt"
	"sync"

	"perfvar/internal/trace"
)

// Streaming replay: StreamReplay folds one rank's event stream directly
// into that rank's flat-profile partial, so its memory is O(call depth +
// regions), independent of trace length. It is the one call-stack
// replay: the streaming engine, the linter, ReplayTrace and the call-tree
// builder all feed it.

// streamFrame is one open invocation on the streaming replay stack.
type streamFrame struct {
	region    trace.RegionID
	enter     trace.Time
	childTime trace.Duration
	recursive bool
}

// scratchPool recycles the per-rank same-region-depth counters, the only
// O(regions) scratch a StreamReplay needs besides its retained partial.
var scratchPool sync.Pool

func getScratch(n int) []int32 {
	if v := scratchPool.Get(); v != nil {
		s := *(v.(*[]int32))
		if cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = 0
			}
			return s
		}
	}
	return make([]int32, n)
}

func putScratch(s []int32) { scratchPool.Put(&s) }

// StreamReplay accumulates one rank's profile contribution from its event
// stream. Feed events in stream order, then call Finish; afterwards the
// accumulator is one of the inputs to ProfileFromStreams. Feed rejects
// undefined regions, a leave without enter, a leave of another region
// than the innermost open one, a leave before its enter, and streams
// beyond MaxInvocations or MaxDepth; Finish rejects unclosed invocations.
//
// Depth and Top describe the open call stack. Read before Feed, they tell
// a consumer where an enter lands and which invocation a leave closes,
// which is all the call-tree builder and the linter need beyond the
// profile.
type StreamReplay struct {
	rank        trace.Rank
	part        rankProfile
	stack       []streamFrame
	sameDepth   []int32 // open invocations per region (recursion detection)
	entered     int64
	events      int64
	first, last trace.Time
	any         bool
}

// NewStreamReplay returns an accumulator for one rank of a trace with
// nregions region definitions.
func NewStreamReplay(rank trace.Rank, nregions int) *StreamReplay {
	return &StreamReplay{
		rank:      rank,
		part:      newRankProfile(nregions),
		sameDepth: getScratch(nregions),
	}
}

// Feed consumes one event. Non-enter/leave events only advance the
// rank's observed time span.
func (r *StreamReplay) Feed(ev trace.Event) error {
	idx := r.events
	r.events++
	if !r.any {
		r.first = ev.Time
		r.any = true
	}
	r.last = ev.Time
	switch ev.Kind {
	case trace.KindEnter:
		if ev.Region < 0 || int(ev.Region) >= len(r.sameDepth) {
			return fmt.Errorf("callstack: rank %d event %d: undefined region %d", r.rank, idx, ev.Region)
		}
		if r.entered >= MaxInvocations {
			return &LimitError{Rank: r.rank, What: "invocations", Limit: MaxInvocations}
		}
		if len(r.stack) > MaxDepth {
			return &LimitError{Rank: r.rank, What: "call-stack depth", Limit: MaxDepth}
		}
		r.stack = append(r.stack, streamFrame{
			region:    ev.Region,
			enter:     ev.Time,
			recursive: r.sameDepth[ev.Region] > 0,
		})
		r.sameDepth[ev.Region]++
		r.entered++
	case trace.KindLeave:
		if ev.Region < 0 || int(ev.Region) >= len(r.sameDepth) {
			return fmt.Errorf("callstack: rank %d event %d: undefined region %d", r.rank, idx, ev.Region)
		}
		if len(r.stack) == 0 {
			return fmt.Errorf("callstack: rank %d event %d: leave without enter", r.rank, idx)
		}
		fr := &r.stack[len(r.stack)-1]
		if fr.region != ev.Region {
			return fmt.Errorf("callstack: rank %d event %d: leave region %d while inside %d",
				r.rank, idx, ev.Region, fr.region)
		}
		if ev.Time < fr.enter {
			return fmt.Errorf("callstack: rank %d event %d: leave at %d before enter at %d",
				r.rank, idx, ev.Time, fr.enter)
		}
		incl := ev.Time - fr.enter
		rp := &r.part.regions[ev.Region]
		rp.Count++
		if !fr.recursive {
			rp.SumInclusive += incl
		}
		rp.SumExclusive += incl - fr.childTime
		if incl > rp.MaxInclusive {
			rp.MaxInclusive = incl
		}
		if rp.MinInclusive < 0 || incl < rp.MinInclusive {
			rp.MinInclusive = incl
		}
		r.part.seen[ev.Region] = true
		r.sameDepth[ev.Region]--
		r.stack = r.stack[:len(r.stack)-1]
		if n := len(r.stack); n > 0 {
			r.stack[n-1].childTime += incl
		}
	}
	return nil
}

// Finish validates stream balance and releases the pooled scratch. It
// must be called exactly once, after the last Feed.
func (r *StreamReplay) Finish() error {
	if len(r.stack) != 0 {
		return fmt.Errorf("callstack: rank %d: %d unclosed invocations", r.rank, len(r.stack))
	}
	putScratch(r.sameDepth)
	r.sameDepth = nil
	return nil
}

// Depth returns the number of open invocations: the call-stack depth an
// enter fed next is recorded at.
func (r *StreamReplay) Depth() int { return len(r.stack) }

// Top describes the innermost open invocation: its region, enter time,
// and the summed inclusive time of its completed children. ok is false
// when no invocation is open.
func (r *StreamReplay) Top() (region trace.RegionID, enter trace.Time, childTime trace.Duration, ok bool) {
	if len(r.stack) == 0 {
		return 0, 0, 0, false
	}
	fr := &r.stack[len(r.stack)-1]
	return fr.region, fr.enter, fr.childTime, true
}

// Events returns how many events have been fed.
func (r *StreamReplay) Events() int64 { return r.events }

// Span returns the rank's first and last observed event timestamps; ok is
// false when no event was fed.
func (r *StreamReplay) Span() (first, last trace.Time, ok bool) {
	return r.first, r.last, r.any
}
