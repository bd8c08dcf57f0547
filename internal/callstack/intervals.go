package callstack

import "perfvar/internal/trace"

// IntervalRecorder finds one rank's maximal intervals inside a set of
// regions: an interval opens when the nesting depth of masked regions
// leaves 0 and closes when it returns to 0, so nested masked regions
// count once. A leave at depth 0 is ignored, and events of regions
// outside the mask, undefined ones included, leave the depth alone.
type IntervalRecorder struct {
	mask  []bool // indexed by RegionID
	depth int
	start trace.Time
}

// NewIntervalRecorder returns a recorder of the intervals inside the
// regions whose mask entry is true.
func NewIntervalRecorder(mask []bool) *IntervalRecorder {
	return &IntervalRecorder{mask: mask}
}

// ParadigmMask returns the region mask selecting the regions of paradigm
// par.
func ParadigmMask(regions []trace.Region, par trace.Paradigm) []bool {
	mask := make([]bool, len(regions))
	for i, r := range regions {
		mask[i] = r.Paradigm == par
	}
	return mask
}

// Feed consumes an event of the given kind, region and time and reports
// the interval it closes, if any. It takes the three fields it reads
// rather than the whole trace.Event so that, inlined into a per-event
// loop, it does not copy the event.
func (r *IntervalRecorder) Feed(kind trace.EventKind, region trace.RegionID, t trace.Time) (from, to trace.Time, closed bool) {
	switch kind {
	case trace.KindEnter:
		if uint(region) < uint(len(r.mask)) && r.mask[region] {
			if r.depth == 0 {
				r.start = t
			}
			r.depth++
		}
	case trace.KindLeave:
		if r.depth > 0 && uint(region) < uint(len(r.mask)) && r.mask[region] {
			r.depth--
			if r.depth == 0 {
				return r.start, t, true
			}
		}
	}
	return 0, 0, false
}

// Open reports whether an interval is open and, if so, when it started.
func (r *IntervalRecorder) Open() (start trace.Time, ok bool) {
	return r.start, r.depth > 0
}

// EachInterval calls fn with the maximal intervals inside the masked
// regions of every rank of tr, ranks in order.
func EachInterval(tr *trace.Trace, mask []bool, fn func(from, to trace.Time)) {
	for rank := range tr.Procs {
		rec := IntervalRecorder{mask: mask}
		for _, ev := range tr.Procs[rank].Events {
			if from, to, ok := rec.Feed(ev.Kind, ev.Region, ev.Time); ok {
				fn(from, to)
			}
		}
	}
}
