package segment

import (
	"fmt"
	"strconv"

	"perfvar/internal/callstack"
	"perfvar/internal/chunk"
	"perfvar/internal/trace"
)

// The segmentation kernel. A CandidateSet is the one state machine that
// cuts a rank's event stream into segments; every segmentation path runs
// it. Compute and StreamSegmenter run it with one tracked region, the
// online detector runs it with one tracked region and an emit callback,
// and the streaming engine runs it with every candidate dominant function
// tracked at once: the engine does not know the dominant function until
// every rank's profile is merged, so it segments at all candidates during
// its single pass, within a memory budget, and keeps the winner's
// segments once selection is done. Only when the budget overflows —
// traces whose candidate functions produce pathologically many segments —
// does the engine fall back to a second pass.
//
// One stack walk serves all tracked regions. Each call-stack frame
// carries a lazily propagated synchronization accumulator: when a frame
// is left, callstack.SyncBelow credits the frame below it with the
// frame's whole wall-clock duration if it is sync-classified (dropping
// what bubbled up from above, which that duration already covers), and
// with what it accumulated otherwise; the outermost invocation of a
// tracked region records its accumulator on its segment. A segment's
// Sync is therefore the total length of the maximal sync intervals
// inside it, each wall-clock instant counted once however deeply sync
// regions nest. The walk is Feed's own stack for Compute,
// StreamSegmenter and the online detector; in the per-rank pass it is
// the call-stack replay's (callstack.NewSyncReplay), whose closed
// invocations reach the set through Add, so each event walks one stack.
//
// Error contract: Feed rejects an undefined region, an enter that would
// nest deeper than callstack.MaxDepth (the bound StreamReplay enforces, which
// also caps a rank's stack memory), a leave on an empty stack, and a leave
// that does not match the open frame; StreamSegmenter.Finish rejects its
// region still open at the end. Every message names the rank and the
// index of the offending event among the events the kernel accepted, and
// names regions by name where the caller supplied them. A rejected event
// leaves the segmentation state, event index included, unchanged.

// DefaultCandidateBudget bounds, per rank, the segment records a
// CandidateSet buffers across all candidate regions before it starts
// evicting: 1<<16 records ≈ 1.5 MiB. Well-structured traces stay far
// below it — the budget exists so adversarial traces degrade to a
// second pass instead of to unbounded memory.
const DefaultCandidateBudget = 1 << 16

// candFrame is one open invocation on the candidate stack.
type candFrame struct {
	region   trace.RegionID
	slot     int32 // the region's tracked slot, or -1
	enter    trace.Time
	syncAcc  trace.Duration // completed sync intervals directly above this frame
	topLevel bool           // outermost open invocation of a tracked region
}

// segRec is one buffered segment: its rank is the set's and its Index
// the record's position in its slot, so neither is stored.
type segRec struct {
	start, end trace.Time
	sync       trace.Duration
}

// A slot buffers its records in a chunk.List: chunks of 16, 32, … up to
// 4096 records, then 4096 each, drawn from segChunks. A full chunk is
// left as it is and a new one started, so a record is never copied
// before Segments builds the caller's slice, and a candidate that is
// evicted or loses selection costs at most its records plus one partly
// filled chunk — and that only until evict or Release hands its chunks
// back for the next set to fill.
var segChunks chunk.Pool[segRec]

// CandidateSet segments one rank's event stream at every tracked region
// at once. Feed events in stream order, or Add the invocations a replay
// closes; after the stream ends, Segments returns the completed segment
// list of any tracked region that stayed within budget.
type CandidateSet struct {
	rank trace.Rank
	sync []bool  // per-region classifier verdicts (SyncMask)
	slot []int32 // per region: its index in the per-slot state below, or -1
	// Per tracked slot: open invocations, completed segments (the next
	// Segment.Index, or -1 once evicted), and buffered segments.
	open   []int32
	count  []int
	segs   []chunk.List[segRec]
	stack  []candFrame
	events int // events accepted so far, the next event index
	stored int
	budget int
	onSeg  func(trace.RegionID, Segment)
	name   func(trace.RegionID) string // region names for errors, or nil
}

// NewCandidateSet returns a candidate segmenter for one rank. track
// selects the regions whose segments are recorded (candidate dominant
// functions); syncMask comes from SyncMask or Prepare and must classify
// every tracked region as non-sync. budget caps the total buffered
// segment records (<=0 means DefaultCandidateBudget).
func NewCandidateSet(rank trace.Rank, track, syncMask []bool, budget int) *CandidateSet {
	if budget <= 0 {
		budget = DefaultCandidateBudget
	}
	slot, n := trackSlots(track, syncMask)
	return newCandidateSet(rank, slot, n, syncMask, budget, nil, nil)
}

// NewCandidateStreams returns a constructor of per-rank kernels that
// hand every completed segment of a tracked region to emit, synchronously
// from Feed, instead of buffering it. The kernels share the per-region
// tables, so a rank costs memory in its tracked regions and stack depth,
// not in the number of regions. Nothing is buffered, so nothing is
// evicted and Segments always reports false. regions names the regions in
// error messages.
func NewCandidateStreams(regions []trace.Region, track, syncMask []bool, emit func(trace.RegionID, Segment)) func(rank trace.Rank) *CandidateSet {
	slot, n := trackSlots(track, syncMask)
	name := regionNames(regions)
	return func(rank trace.Rank) *CandidateSet {
		return newCandidateSet(rank, slot, n, syncMask, 0, emit, name)
	}
}

// regionNames looks region names up in the definitions.
func regionNames(regions []trace.Region) func(trace.RegionID) string {
	return func(r trace.RegionID) string {
		if r < 0 || int(r) >= len(regions) {
			return ""
		}
		return regions[r].Name
	}
}

// trackSlots numbers the n tracked regions densely.
func trackSlots(track, syncMask []bool) (slot []int32, n int) {
	slot = make([]int32, len(syncMask))
	for r := range slot {
		slot[r] = -1
		if r < len(track) && track[r] {
			slot[r] = int32(n)
			n++
		}
	}
	return slot, n
}

func newCandidateSet(rank trace.Rank, slot []int32, n int, syncMask []bool, budget int,
	emit func(trace.RegionID, Segment), name func(trace.RegionID) string) *CandidateSet {
	c := &CandidateSet{
		rank:   rank,
		sync:   syncMask,
		slot:   slot,
		open:   make([]int32, n),
		count:  make([]int, n),
		budget: budget,
		onSeg:  emit,
		name:   name,
	}
	if emit == nil {
		c.segs = make([]chunk.List[segRec], n)
		for s := range c.segs {
			c.segs[s] = chunk.NewList(&segChunks)
		}
	}
	return c
}

// Feed consumes one event; see the package comment for the errors.
func (c *CandidateSet) Feed(ev trace.Event) error {
	switch ev.Kind {
	case trace.KindEnter:
		r := ev.Region
		if r < 0 || int(r) >= len(c.slot) {
			return c.errorf("undefined region %d", r)
		}
		if len(c.stack) > callstack.MaxDepth {
			return c.errorf("call-stack depth exceeds the representable maximum %d", callstack.MaxDepth)
		}
		fr := candFrame{region: r, slot: c.slot[r], enter: ev.Time}
		if fr.slot >= 0 {
			fr.topLevel = c.open[fr.slot] == 0
			c.open[fr.slot]++
		}
		c.stack = append(c.stack, fr)
	case trace.KindLeave:
		r := ev.Region
		n := len(c.stack)
		if n == 0 || c.stack[n-1].region != r {
			return c.leaveError(r)
		}
		fr := &c.stack[n-1]
		if fr.topLevel && !c.sync[r] {
			c.emit(r, fr.slot, fr.enter, ev.Time, fr.syncAcc)
		}
		if n > 1 {
			c.stack[n-2].syncAcc += callstack.SyncBelow(c.sync[r], fr.enter, ev.Time, fr.syncAcc)
		}
		if fr.slot >= 0 {
			c.open[fr.slot]--
		}
		c.stack = c.stack[:n-1]
	}
	c.events++
	return nil
}

// Add records an invocation closed on a call stack walked elsewhere —
// the per-rank pass's replay (callstack.NewSyncReplay under this set's
// sync mask), which has already rejected every event Feed would reject.
// The set then only buffers, budgets and evicts: it walks no stack of its
// own, so a set fed through Add must not also be fed events. For a
// tracked region a replay's Recursive is exactly !topLevel: both say
// whether another invocation of the region was open at the enter.
func (c *CandidateSet) Add(inv callstack.Closed) {
	if s := c.slot[inv.Region]; s >= 0 && !inv.Recursive && !c.sync[inv.Region] {
		c.emit(inv.Region, s, inv.Enter, inv.End, inv.Sync)
	}
}

// leaveError explains a leave that does not close the open frame.
func (c *CandidateSet) leaveError(r trace.RegionID) error {
	switch n := len(c.stack); {
	case r < 0 || int(r) >= len(c.slot):
		return c.errorf("undefined region %d", r)
	case n == 0:
		return c.errorf("leave of %s without enter", c.label(r))
	default:
		return c.errorf("leave of %s while %s is open", c.label(r), c.label(c.stack[n-1].region))
	}
}

// errorf fails the event at the current index.
func (c *CandidateSet) errorf(format string, args ...any) error {
	return fmt.Errorf("segment: rank %d event %d: %s", c.rank, c.events, fmt.Sprintf(format, args...))
}

// label names region r in an error: quoted by name when known, else by id.
func (c *CandidateSet) label(r trace.RegionID) string {
	if c.name != nil {
		if n := c.name(r); n != "" {
			return strconv.Quote(n)
		}
	}
	return fmt.Sprintf("region %d", r)
}

func (c *CandidateSet) emit(r trace.RegionID, slot int32, start, end trace.Time, sync trace.Duration) {
	if c.count[slot] < 0 {
		return // evicted
	}
	if c.onSeg != nil {
		seg := Segment{Rank: c.rank, Index: c.count[slot], Start: start, End: end, Sync: sync}
		c.count[slot]++
		c.onSeg(r, seg)
		return
	}
	c.segs[slot].Append(segRec{start: start, end: end, sync: sync})
	c.count[slot]++
	c.stored++
	if c.stored > c.budget {
		c.evict()
	}
}

// evict drops the candidate with the most buffered segments — the
// fine-grained region flooding the budget — and stops tracking it. If
// that region later wins the dominant selection, the engine re-streams
// it in a fallback pass.
func (c *CandidateSet) evict() {
	worst, worstLen := -1, 0
	for s, n := range c.count {
		if n > worstLen {
			worst, worstLen = s, n
		}
	}
	if worst < 0 {
		return
	}
	c.stored -= worstLen
	c.segs[worst].Release()
	c.count[worst] = -1
}

// Release hands every buffered chunk back for reuse by later sets. Call
// it once the Segments results the caller needs have been taken: they
// are copies, so they stay valid. Afterwards the set behaves as if every
// candidate had been evicted — Segments reports false and further
// segments are dropped. A set in emit mode buffers nothing, so Release
// leaves it as it is.
func (c *CandidateSet) Release() {
	for s := range c.segs {
		c.segs[s].Release()
		c.count[s] = -1
	}
	c.stored = 0
}

// finish ends the stream, failing when a tracked region is still open.
func (c *CandidateSet) finish() error {
	for _, fr := range c.stack {
		if fr.slot >= 0 && c.count[fr.slot] >= 0 {
			return c.errorf("end of stream with %d unclosed invocations of %s", c.open[fr.slot], c.label(fr.region))
		}
	}
	return nil
}

// Segments returns the rank's completed segments for region r, in a new
// slice of exactly their number (nil when there are none). ok is false
// when the region was not tracked, was evicted over budget, or went to an
// emit callback — the caller must then fall back to a dedicated
// segmentation pass.
func (c *CandidateSet) Segments(r trace.RegionID) ([]Segment, bool) {
	if c.segs == nil || r < 0 || int(r) >= len(c.slot) {
		return nil, false
	}
	s := c.slot[r]
	if s < 0 || c.count[s] < 0 {
		return nil, false
	}
	if c.count[s] == 0 {
		return nil, true
	}
	out := make([]Segment, 0, c.count[s])
	recs := &c.segs[s]
	for i := 0; i < recs.NumChunks(); i++ {
		for _, rec := range recs.Chunk(i) {
			out = append(out, Segment{Rank: c.rank, Index: len(out), Start: rec.start, End: rec.end, Sync: rec.sync})
		}
	}
	return out, true
}
