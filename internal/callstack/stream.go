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
	syncAcc   trace.Duration // completed sync intervals directly above, under the sync mask
	recursive bool
}

// Closed is one invocation a leave closed.
type Closed struct {
	Region     trace.RegionID
	Enter, End trace.Time
	// Sync is the synchronization time inside the invocation under the
	// replay's sync mask, each wall-clock instant counted once however
	// deeply sync regions nest.
	Sync trace.Duration
	// Recursive is set when another invocation of Region was open when
	// this one was entered.
	Recursive bool
}

// SyncBelow is the rule that turns nested sync regions into sync time,
// shared by every stack walk that measures it: a frame that closes over
// [enter, end) hands the frame below it its whole duration when it is a
// sync frame, since that interval subsumes any sync intervals completed
// inside it, and otherwise hands on the sync time acc it accumulated.
func SyncBelow(sync bool, enter, end trace.Time, acc trace.Duration) trace.Duration {
	if sync {
		return end - enter
	}
	return acc
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
// profile. Read after a Feed of a leave, Closed reports the invocation
// that leave closed, with its synchronization time when the replay was
// built by NewSyncReplay: the one stack walk from which the per-rank
// pass cuts segments.
type StreamReplay struct {
	rank        trace.Rank
	part        rankProfile
	stack       []streamFrame
	sameDepth   []int32 // open invocations per region (recursion detection)
	sync        []bool  // per-region sync verdicts, or nil to measure no sync time
	entered     int64
	events      int64
	first, last trace.Time
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

// NewSyncReplay returns an accumulator for one rank whose frames also
// accumulate synchronization time under syncMask (one verdict per
// region definition, from segment.SyncMask), so that Closed reports each
// closed invocation's sync time.
func NewSyncReplay(rank trace.Rank, syncMask []bool) *StreamReplay {
	r := NewStreamReplay(rank, len(syncMask))
	r.sync = syncMask
	return r
}

// Feed consumes one event. Non-enter/leave events only advance the
// rank's observed time span.
func (r *StreamReplay) Feed(ev trace.Event) error { return r.feed(ev.Kind, ev.Region, ev.Time) }

// feed is Feed on the three fields it reads: Feed inlines into a
// per-event loop as a call of feed, so the event is not copied.
func (r *StreamReplay) feed(kind trace.EventKind, region trace.RegionID, t trace.Time) error {
	if r.events == 0 {
		r.first = t
	}
	r.events++
	r.last = t
	switch kind {
	case trace.KindEnter:
		n := len(r.stack)
		if uint(region) >= uint(len(r.sameDepth)) || r.entered >= MaxInvocations || n > MaxDepth {
			return r.enterError(region)
		}
		// The frame is stored field by field: a composite literal would
		// be built on the stack and block-copied, and the wide loads of
		// that copy stall on the narrow stores just made.
		if n == cap(r.stack) {
			r.stack = append(r.stack, streamFrame{})
		} else {
			r.stack = r.stack[:n+1]
		}
		fr := &r.stack[n]
		fr.region, fr.enter, fr.childTime, fr.syncAcc = region, t, 0, 0
		fr.recursive = r.sameDepth[region] > 0
		r.sameDepth[region]++
		r.entered++
	case trace.KindLeave:
		n := len(r.stack)
		if uint(region) >= uint(len(r.sameDepth)) || n == 0 || r.stack[n-1].region != region || t < r.stack[n-1].enter {
			return r.leaveError(region, t)
		}
		fr := &r.stack[n-1]
		incl := t - fr.enter
		rp := &r.part.regions[region]
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
		r.part.seen[region] = true
		r.sameDepth[region]--
		// The popped frame stays in the stack's backing array, where
		// Closed reads it until the next enter overwrites it.
		r.stack = r.stack[:n-1]
		if n > 1 {
			below := &r.stack[n-2]
			below.childTime += incl
			if r.sync != nil {
				below.syncAcc += SyncBelow(r.sync[region], fr.enter, t, fr.syncAcc)
			}
		}
	}
	return nil
}

// enterError explains why Feed rejected the enter of region it was
// just fed. Errors are built out of line, so that Feed's accepting path
// keeps the event in registers.
func (r *StreamReplay) enterError(region trace.RegionID) error {
	switch {
	case region < 0 || int(region) >= len(r.sameDepth):
		return fmt.Errorf("callstack: rank %d event %d: undefined region %d", r.rank, r.events-1, region)
	case r.entered >= MaxInvocations:
		return &LimitError{Rank: r.rank, What: "invocations", Limit: MaxInvocations}
	default:
		return &LimitError{Rank: r.rank, What: "call-stack depth", Limit: MaxDepth}
	}
}

// leaveError explains why Feed rejected the leave of region at t it
// was just fed.
func (r *StreamReplay) leaveError(region trace.RegionID, t trace.Time) error {
	idx := r.events - 1
	if region < 0 || int(region) >= len(r.sameDepth) {
		return fmt.Errorf("callstack: rank %d event %d: undefined region %d", r.rank, idx, region)
	}
	if len(r.stack) == 0 {
		return fmt.Errorf("callstack: rank %d event %d: leave without enter", r.rank, idx)
	}
	fr := &r.stack[len(r.stack)-1]
	if fr.region != region {
		return fmt.Errorf("callstack: rank %d event %d: leave region %d while inside %d", r.rank, idx, region, fr.region)
	}
	return fmt.Errorf("callstack: rank %d event %d: leave at %d before enter at %d", r.rank, idx, t, fr.enter)
}

// Closed describes the invocation closed by the leave just fed. Call it
// only right after a Feed of a leave event that returned nil.
func (r *StreamReplay) Closed() Closed {
	fr := &r.stack[:len(r.stack)+1][len(r.stack)]
	return Closed{Region: fr.region, Enter: fr.enter, End: r.last, Sync: fr.syncAcc, Recursive: fr.recursive}
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
	return r.first, r.last, r.events > 0
}
