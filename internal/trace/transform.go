package trace

import (
	"fmt"
	"slices"
)

// This file implements trace reduction: extracting time windows and rank
// subsets. The paper's second case study relies on exactly this workflow —
// "the analyst used a second measurement run to only record slow
// iterations; for normal iterations the analyst discarded the tracing
// data". Window lets the analyst do that after the fact on a full trace.

// Transform returns a new trace whose per-rank event streams are rewritten
// by fn. Definitions and process metadata are copied; fn receives the
// original (shared, read-only) event slice of each rank and must return a
// fresh slice — or the input unchanged — without mutating it in place.
// This is the mechanical basis for lint's -fix rewrites.
func (tr *Trace) Transform(fn func(rank Rank, events []Event) []Event) *Trace {
	out := New(tr.Name, tr.NumRanks())
	out.Regions = append([]Region(nil), tr.Regions...)
	out.Metrics = append([]Metric(nil), tr.Metrics...)
	for rank := range tr.Procs {
		out.Procs[rank].Proc = tr.Procs[rank].Proc
		out.Procs[rank].Events = fn(Rank(rank), tr.Procs[rank].Events)
	}
	return out
}

// Window returns a new trace containing only the events of [from, to].
// Regions that are active across a window edge are clipped: enters are
// synthesized at from (outermost first) and leaves at to (innermost
// first), so the result is balanced and analyzable like a regular trace.
// Metric samples outside the window are dropped except for one synthetic
// sample at from per metric, in MetricID order, carrying the last value
// seen before the window (so accumulated-counter deltas stay correct).
func (tr *Trace) Window(from, to Time) *Trace {
	out, _ := WindowStreams(tr.Header(), from, to, tr.StreamRank) // the window kernel never fails
	return out
}

// WindowStreams is Window over per-rank event streams: h declares the
// definitions and stream feeds rank's events to fn in stream order,
// ending the stream without error when fn returns ErrStopStream (the
// shape of Trace.StreamRank). Each rank is read only up to its first
// event past to.
func WindowStreams(h *Header, from, to Time, stream func(rank int, fn func(Event) error) error) (*Trace, error) {
	if to < from {
		from, to = to, from
	}
	out := New(h.Name, len(h.Procs))
	out.Regions = append([]Region(nil), h.Regions...)
	out.Metrics = append([]Metric(nil), h.Metrics...)
	for rank := range h.Procs {
		out.Procs[rank].Proc = h.Procs[rank]
		w := rankWindow{from: from, to: to, lastVal: map[MetricID]float64{}}
		if err := stream(rank, w.feed); err != nil {
			return nil, err
		}
		out.Procs[rank].Events = w.finish()
	}
	return out, nil
}

// rankWindow is the window kernel: fed one rank's events in stream
// order, it keeps those in [from, to] and tracks the open regions and
// last metric values before from, for the clip events.
type rankWindow struct {
	from, to Time
	out      []Event
	stack    []RegionID
	lastVal  map[MetricID]float64
	started  bool
}

func (w *rankWindow) feed(ev Event) error {
	if ev.Time > w.to {
		return ErrStopStream
	}
	if ev.Time < w.from {
		if ev.Kind == KindMetric {
			w.lastVal[ev.Metric] = ev.Value
		}
	} else {
		if !w.started {
			w.open()
		}
		w.out = append(w.out, ev)
	}
	switch ev.Kind {
	case KindEnter:
		w.stack = append(w.stack, ev.Region)
	case KindLeave:
		if len(w.stack) > 0 {
			w.stack = w.stack[:len(w.stack)-1]
		}
	}
	return nil
}

// open synthesizes enters at from for the regions already open, plus the
// carry-in metric samples in MetricID order, so repeated windows encode
// to the same bytes.
func (w *rankWindow) open() {
	for _, r := range w.stack {
		w.out = append(w.out, Enter(w.from, r))
	}
	ids := make([]MetricID, 0, len(w.lastVal))
	for id := range w.lastVal {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		w.out = append(w.out, Sample(w.from, id, w.lastVal[id]))
	}
	w.started = true
}

// finish closes the regions still open at to, innermost first, and
// returns the rank's windowed events.
func (w *rankWindow) finish() []Event {
	if !w.started && len(w.stack)+len(w.lastVal) > 0 {
		// Nothing inside the window, but regions or samples span it.
		w.open()
	}
	for i := len(w.stack) - 1; i >= 0; i-- {
		w.out = append(w.out, Leave(w.to, w.stack[i]))
	}
	return w.out
}

// FilterRanks returns a new trace containing only the given ranks, in the
// given order, renumbered densely. Send/Recv events whose peer is not in
// the subset are dropped (their partner's stream is gone); peers inside
// the subset are remapped to the new numbering.
func (tr *Trace) FilterRanks(ranks []Rank) *Trace {
	out := New(tr.Name, len(ranks))
	out.Regions = append([]Region(nil), tr.Regions...)
	out.Metrics = append([]Metric(nil), tr.Metrics...)
	remap := make(map[Rank]Rank, len(ranks))
	for i, r := range ranks {
		remap[r] = Rank(i)
	}
	for i, r := range ranks {
		src := &tr.Procs[r]
		dst := &out.Procs[i]
		dst.Proc = Process{Rank: Rank(i), Name: src.Proc.Name}
		for _, ev := range src.Events {
			if ev.Kind == KindSend || ev.Kind == KindRecv {
				newPeer, ok := remap[ev.Peer]
				if !ok {
					continue
				}
				ev.Peer = newPeer
			}
			dst.Events = append(dst.Events, ev)
		}
	}
	return out
}

// Concat appends b's run after a's on a shared timeline: b's events are
// shifted so its first event starts gap nanoseconds after a's last event.
// Definitions are merged by name (a's IDs are kept; b's regions/metrics
// are remapped, new ones appended). Both traces must have the same rank
// count. Use it to stitch multi-phase measurement sessions — e.g. a
// profiling prefix plus the instrumented production phase — into one
// analyzable trace.
func Concat(a, b *Trace, gap Duration) (*Trace, error) {
	if a.NumRanks() != b.NumRanks() {
		return nil, fmt.Errorf("trace: Concat rank mismatch: %d vs %d", a.NumRanks(), b.NumRanks())
	}
	out := New(a.Name, a.NumRanks())
	out.Regions = append([]Region(nil), a.Regions...)
	out.Metrics = append([]Metric(nil), a.Metrics...)
	for rank := range a.Procs {
		out.Procs[rank].Proc = a.Procs[rank].Proc
		out.Procs[rank].Events = append([]Event(nil), a.Procs[rank].Events...)
	}

	regionMap := make(map[RegionID]RegionID, len(b.Regions))
	for _, r := range b.Regions {
		if existing, ok := out.RegionByName(r.Name); ok {
			regionMap[r.ID] = existing.ID
		} else {
			regionMap[r.ID] = out.AddRegion(r.Name, r.Paradigm, r.Role)
		}
	}
	metricMap := make(map[MetricID]MetricID, len(b.Metrics))
	for _, m := range b.Metrics {
		if existing, ok := out.MetricByName(m.Name); ok {
			metricMap[m.ID] = existing.ID
		} else {
			metricMap[m.ID] = out.AddMetric(m.Name, m.Unit, m.Mode)
		}
	}

	// Accumulated counters restart at each measurement session; rebase
	// b's values by the last value a recorded per (rank, metric) so the
	// merged series stays monotone.
	base := make([]map[MetricID]float64, a.NumRanks())
	for rank := range a.Procs {
		base[rank] = make(map[MetricID]float64)
		for _, ev := range a.Procs[rank].Events {
			if ev.Kind == KindMetric && out.Metrics[ev.Metric].Mode == MetricAccumulated {
				base[rank][ev.Metric] = ev.Value
			}
		}
	}

	_, aLast := a.Span()
	bFirst, _ := b.Span()
	shift := aLast + gap - bFirst
	for rank := range b.Procs {
		for _, ev := range b.Procs[rank].Events {
			ev.Time += shift
			switch ev.Kind {
			case KindEnter, KindLeave:
				ev.Region = regionMap[ev.Region]
			case KindMetric:
				ev.Metric = metricMap[ev.Metric]
				if out.Metrics[ev.Metric].Mode == MetricAccumulated {
					ev.Value += base[rank][ev.Metric]
				}
			}
			out.Procs[rank].Events = append(out.Procs[rank].Events, ev)
		}
	}
	return out, nil
}
