package trace

import (
	"errors"
	"fmt"
	"sort"
)

// ProcessTrace is the time-sorted event stream of one processing element.
type ProcessTrace struct {
	Proc   Process
	Events []Event
}

// Span returns the first and last event timestamps of the stream. A stream
// without events reports (0, 0).
func (pt *ProcessTrace) Span() (first, last Time) {
	if len(pt.Events) == 0 {
		return 0, 0
	}
	return pt.Events[0].Time, pt.Events[len(pt.Events)-1].Time
}

// Trace is a complete measurement data set: global definitions plus one
// event stream per processing element.
type Trace struct {
	// Name labels the measured application or workload.
	Name string
	// Regions holds region definitions, indexed by RegionID.
	Regions []Region
	// Metrics holds metric definitions, indexed by MetricID.
	Metrics []Metric
	// Procs holds per-process event streams, indexed by Rank.
	Procs []ProcessTrace
}

// New returns an empty trace named name with nranks empty process streams.
func New(name string, nranks int) *Trace {
	tr := &Trace{Name: name, Procs: make([]ProcessTrace, nranks)}
	for i := range tr.Procs {
		tr.Procs[i].Proc = Process{Rank: Rank(i), Name: fmt.Sprintf("Process %d", i)}
	}
	return tr
}

// NumRanks returns the number of processing elements.
func (tr *Trace) NumRanks() int { return len(tr.Procs) }

// NumEvents returns the total event count across all streams.
func (tr *Trace) NumEvents() int {
	n := 0
	for i := range tr.Procs {
		n += len(tr.Procs[i].Events)
	}
	return n
}

// Header returns tr's definitions and process metadata, sharing tr's
// slices.
func (tr *Trace) Header() *Header {
	h := &Header{Name: tr.Name, Regions: tr.Regions, Metrics: tr.Metrics, Procs: make([]Process, len(tr.Procs))}
	for i := range tr.Procs {
		h.Procs[i] = tr.Procs[i].Proc
	}
	return h
}

// Span returns the earliest and latest event timestamps across all streams.
// An empty trace reports (0, 0).
func (tr *Trace) Span() (first, last Time) {
	any := false
	for i := range tr.Procs {
		if len(tr.Procs[i].Events) == 0 {
			continue
		}
		f, l := tr.Procs[i].Span()
		if !any || f < first {
			first = f
		}
		if !any || l > last {
			last = l
		}
		any = true
	}
	return first, last
}

// AddRegion appends a region definition and returns its ID. Region names
// need not be unique, but lookups by name return the first match.
func (tr *Trace) AddRegion(name string, p Paradigm, role RegionRole) RegionID {
	id := RegionID(len(tr.Regions))
	tr.Regions = append(tr.Regions, Region{ID: id, Name: name, Paradigm: p, Role: role})
	return id
}

// AddMetric appends a metric definition and returns its ID.
func (tr *Trace) AddMetric(name, unit string, mode MetricMode) MetricID {
	id := MetricID(len(tr.Metrics))
	tr.Metrics = append(tr.Metrics, Metric{ID: id, Name: name, Unit: unit, Mode: mode})
	return id
}

// StreamRank feeds rank's events to fn in stream order, the per-rank
// stream shape the archive readers (RankStreams, DirStreams) share.
// Returning ErrStopStream from fn ends the stream early without error.
func (tr *Trace) StreamRank(rank int, fn func(Event) error) error {
	return tr.StreamRuns(rank, eachEvent(fn))
}

// StreamRuns hands rank's events to fn as one run: the trace's own event
// slice, not a copy, which fn must not modify or retain. Returning
// ErrStopStream from fn ends the stream without error.
func (tr *Trace) StreamRuns(rank int, fn func([]Event) error) error {
	if rank < 0 || rank >= len(tr.Procs) {
		return fmt.Errorf("trace: rank %d out of range", rank)
	}
	if evs := tr.Procs[rank].Events; len(evs) > 0 {
		if err := fn(evs); err != nil && !errors.Is(err, ErrStopStream) {
			return err
		}
	}
	return nil
}

// Region returns the definition for id. It panics if id is out of range;
// use ValidRegion to test.
func (tr *Trace) Region(id RegionID) Region { return tr.Regions[id] }

// ValidRegion reports whether id refers to a defined region.
func (tr *Trace) ValidRegion(id RegionID) bool {
	return id >= 0 && int(id) < len(tr.Regions)
}

// RegionByName returns the first region whose name equals name.
func (tr *Trace) RegionByName(name string) (Region, bool) {
	for _, r := range tr.Regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// MetricByName returns the first metric whose name equals name.
func (tr *Trace) MetricByName(name string) (Metric, bool) {
	for _, m := range tr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Append adds ev to the stream of rank. The caller must keep per-rank
// timestamps non-decreasing; Validate checks this property.
func (tr *Trace) Append(rank Rank, ev Event) {
	tr.Procs[rank].Events = append(tr.Procs[rank].Events, ev)
}

// SortEvents stably sorts every stream by timestamp. Builders emit events
// in order, so this is only needed after manual stream surgery.
func (tr *Trace) SortEvents() {
	for i := range tr.Procs {
		evs := tr.Procs[i].Events
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	}
}

// MetricSamplesRank returns the (time, value) samples of metric id on rank,
// in stream order.
func (tr *Trace) MetricSamplesRank(rank Rank, id MetricID) (times []Time, values []float64) {
	for _, ev := range tr.Procs[rank].Events {
		if ev.Kind == KindMetric && ev.Metric == id {
			times = append(times, ev.Time)
			values = append(values, ev.Value)
		}
	}
	return times, values
}
