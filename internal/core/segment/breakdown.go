package segment

import (
	"fmt"
	"sort"

	"perfvar/internal/trace"
)

// BreakdownEntry attributes part of a segment's wall-clock time to one
// region (exclusive time: the interval where that region was on top of
// the call stack).
type BreakdownEntry struct {
	Region trace.RegionID
	Name   string
	// Exclusive is the top-of-stack time of the region inside the
	// segment.
	Exclusive trace.Duration
	// Share is Exclusive / segment inclusive duration.
	Share float64
}

// Breakdown dissects segments of one rank: for each region active inside
// [seg.Start, seg.End] it reports the exclusive time spent there. The
// entries of a segment sum to its inclusive duration and are sorted by
// descending exclusive time. This is the paper's "focused subsequent
// analysis" — once the SOS heatmap points at a hotspot segment,
// Breakdown shows where inside it the time went.
//
// All segments must lie on one rank. streamRank replays that rank's
// events (the SourceStreams.StreamRank shape, which swallows
// trace.ErrStopStream); one sweep serves every segment and stops once
// the last one has ended. regions resolves entry names. The result holds
// one entry list per segment, in the order given.
func Breakdown(regions []trace.Region, segs []Segment, streamRank func(rank int, fn func(trace.Event) error) error) ([][]BreakdownEntry, error) {
	if len(segs) == 0 {
		return nil, nil
	}
	rank := segs[0].Rank
	excl := make([]map[trace.RegionID]trace.Duration, len(segs))
	open := make([]int, len(segs)) // segments no event has passed the end of yet
	for i, seg := range segs {
		if seg.Rank != rank {
			return nil, fmt.Errorf("segment: breakdown mixes ranks %d and %d", rank, seg.Rank)
		}
		excl[i] = make(map[trace.RegionID]trace.Duration)
		open[i] = i
	}
	var stack []trace.RegionID
	var prev trace.Time
	// attribute charges [prev, upTo), clamped to segment i, to the region
	// on top of the stack.
	attribute := func(i int, upTo trace.Time) {
		a, b := max(prev, segs[i].Start), min(upTo, segs[i].End)
		if b > a && len(stack) > 0 {
			excl[i][stack[len(stack)-1]] += b - a
		}
	}
	err := streamRank(int(rank), func(ev trace.Event) error {
		kept := open[:0]
		for _, i := range open {
			switch {
			case ev.Time > segs[i].End:
				attribute(i, segs[i].End)
				continue
			case ev.Time >= segs[i].Start && (ev.Kind == trace.KindEnter || ev.Kind == trace.KindLeave):
				attribute(i, ev.Time)
			}
			kept = append(kept, i)
		}
		open = kept
		if len(open) == 0 {
			return trace.ErrStopStream
		}
		switch ev.Kind {
		case trace.KindEnter:
			stack = append(stack, ev.Region)
		case trace.KindLeave:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			return nil
		}
		prev = ev.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range open {
		attribute(i, segs[i].End)
	}

	out := make([][]BreakdownEntry, len(segs))
	for i, seg := range segs {
		entries := make([]BreakdownEntry, 0, len(excl[i]))
		incl := seg.Inclusive()
		for r, d := range excl[i] {
			e := BreakdownEntry{Region: r, Name: regions[r].Name, Exclusive: d}
			if incl > 0 {
				e.Share = float64(d) / float64(incl)
			}
			entries = append(entries, e)
		}
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].Exclusive != entries[b].Exclusive {
				return entries[a].Exclusive > entries[b].Exclusive
			}
			return entries[a].Region < entries[b].Region
		})
		out[i] = entries
	}
	return out, nil
}
