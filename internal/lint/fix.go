package lint

import (
	"context"

	"perfvar/internal/clockfix"
	"perfvar/internal/trace"
)

// FixReport summarizes what Fix changed.
type FixReport struct {
	// DroppedEvents counts events removed: out-of-order records, events
	// with undefined region/metric/peer references, stray leaves, events
	// of unknown kind, and decreasing accumulated-metric samples.
	DroppedEvents int `json:"dropped_events"`
	// SynthesizedLeaves counts leave events inserted to close unbalanced
	// regions (at mismatched leaves and at stream ends).
	SynthesizedLeaves int `json:"synthesized_leaves"`
	// ClampedSizes counts negative message sizes clamped to zero.
	ClampedSizes int `json:"clamped_sizes"`
	// ClockApplied reports whether per-rank clock offsets were applied.
	ClockApplied bool `json:"clock_applied"`
	// ClockOffsets holds the applied per-rank offsets when ClockApplied.
	ClockOffsets []trace.Duration `json:"clock_offsets,omitempty"`
}

// Changed reports whether Fix modified the trace at all.
func (r *FixReport) Changed() bool {
	return r.DroppedEvents > 0 || r.SynthesizedLeaves > 0 || r.ClampedSizes > 0 || r.ClockApplied
}

// Fix mechanically repairs every fixable finding and returns the
// repaired trace (the input is not modified):
//
//   - out-of-order events are dropped,
//   - events referencing undefined regions, metrics, or peer ranks are
//     dropped, as are events of unknown kind,
//   - stray leaves are dropped; mismatched leaves synthesize leaves for
//     the unclosed inner regions; regions still open at the stream end
//     are closed at the last timestamp,
//   - decreasing accumulated-metric samples are dropped,
//   - negative message sizes are clamped to zero,
//   - when message-causality violations remain, per-rank clock offsets
//     are estimated and applied (clockfix) — but only when the offsets
//     actually eliminate every violation. Clock rate drift that constant
//     offsets cannot repair is left untouched; shifting anyway would
//     move the violations around and make repeated Fix runs diverge.
//
// Fix is idempotent: fixing an already-fixed trace changes nothing.
//
// After Fix the error-severity analyzers (nesting, metricmode, msgmatch
// structural checks) find nothing; warning-tier findings that have no
// mechanical repair (unmatched sends, dominance problems) may remain.
// minLatency configures the causality model; zero means
// DefaultMinLatency.
func Fix(tr *trace.Trace, minLatency trace.Duration) (*trace.Trace, *FixReport) {
	if minLatency <= 0 {
		minLatency = DefaultMinLatency
	}
	rep := &FixReport{}
	out := tr.Transform(func(rank trace.Rank, events []trace.Event) []trace.Event {
		return fixRank(tr, events, rep)
	})
	// One matching counts the violations before and after the shift: a
	// constant shift per rank pairs the same messages.
	_, clock, _ := clockfix.CorrectStreams(context.Background(), out.NumRanks(), out.StreamRank, minLatency) // a trace's streams never fail
	if clock.ViolationsBefore > 0 && clock.ViolationsAfter == 0 {
		out, _ = clockfix.Apply(out, clock.Offsets) // one offset per rank of out
		rep.ClockApplied = true
		rep.ClockOffsets = clock.Offsets
	}
	return out, rep
}

// fixRank rewrites one rank's stream. The repairs mirror, one for one,
// the recovery strategies trace.StreamChecker uses to keep reporting
// after a violation — so a fixed stream is exactly one the checker finds
// nothing in.
func fixRank(tr *trace.Trace, events []trace.Event, rep *FixReport) []trace.Event {
	out := make([]trace.Event, 0, len(events))
	var (
		stack   []trace.RegionID
		prev    trace.Time
		lastVal = map[trace.MetricID]float64{}
	)
	for _, ev := range events {
		if ev.Time < prev {
			rep.DroppedEvents++
			continue
		}
		switch ev.Kind {
		case trace.KindEnter:
			if !tr.ValidRegion(ev.Region) {
				rep.DroppedEvents++
				continue
			}
			stack = append(stack, ev.Region)
		case trace.KindLeave:
			if !tr.ValidRegion(ev.Region) {
				rep.DroppedEvents++
				continue
			}
			at := -1
			for j := len(stack) - 1; j >= 0; j-- {
				if stack[j] == ev.Region {
					at = j
					break
				}
			}
			if at < 0 {
				rep.DroppedEvents++ // stray leave
				continue
			}
			// Close unclosed inner regions, innermost first, then the
			// requested one.
			for j := len(stack) - 1; j > at; j-- {
				out = append(out, trace.Leave(ev.Time, stack[j]))
				rep.SynthesizedLeaves++
			}
			stack = stack[:at]
		case trace.KindMetric:
			if ev.Metric < 0 || int(ev.Metric) >= len(tr.Metrics) {
				rep.DroppedEvents++
				continue
			}
			if tr.Metrics[ev.Metric].Mode == trace.MetricAccumulated {
				if last, ok := lastVal[ev.Metric]; ok && ev.Value < last {
					rep.DroppedEvents++
					continue
				}
				lastVal[ev.Metric] = ev.Value
			}
		case trace.KindSend, trace.KindRecv:
			if ev.Peer < 0 || int(ev.Peer) >= len(tr.Procs) {
				rep.DroppedEvents++
				continue
			}
			if ev.Bytes < 0 {
				ev.Bytes = 0
				rep.ClampedSizes++
			}
		default:
			rep.DroppedEvents++
			continue
		}
		prev = ev.Time
		out = append(out, ev)
	}
	for j := len(stack) - 1; j >= 0; j-- {
		out = append(out, trace.Leave(prev, stack[j]))
		rep.SynthesizedLeaves++
	}
	return out
}
