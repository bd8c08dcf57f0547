// Package segment implements step 2 of the paper's methodology: cutting
// the application run into segments at the invocations of the selected
// time-dominant function and computing each segment's
// synchronization-oblivious segment time (SOS-time).
//
// A segment's duration is the inclusive time of the dominant-function
// invocation. Its SOS-time subtracts all time spent in synchronization
// operations (MPI_Wait, MPI_Reduce, barriers, ...) inside the segment, so
// ranks that merely wait for a straggler show low SOS-times while the
// straggler itself shows a high one — exposing the causing process of an
// imbalance (paper Section V, Figure 3).
package segment

import (
	"context"
	"errors"
	"strings"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// ErrSyncRegion is returned by Compute when the segmentation region is
// itself classified as synchronization by the chosen classifier. Every
// wall-clock instant of such a segment would be subtracted as sync time,
// so all SOS-times would be identically zero and the variation analysis
// would be meaningless — the same rationale for which dominant-function
// selection excludes sync regions by default (dominant.Options.IncludeSync).
var ErrSyncRegion = errors.New("segment: region is classified as synchronization, SOS-times would be identically zero")

// SyncClassifier decides which regions count as synchronization and are
// subtracted from segment durations.
type SyncClassifier interface {
	IsSync(r trace.Region) bool
}

// ParadigmSync classifies synchronization by paradigm. The zero value
// classifies nothing. MPI and IO regions count wholesale (every MPI call
// is communication or synchronization); OpenMP regions count only in
// synchronizing roles (barrier, wait, collective) — the compute inside an
// omp parallel region is user work, only the implicit/explicit barriers
// are subtractable.
type ParadigmSync struct {
	MPI    bool
	OpenMP bool
	IO     bool
}

// IsSync implements SyncClassifier.
func (p ParadigmSync) IsSync(r trace.Region) bool {
	switch r.Paradigm {
	case trace.ParadigmMPI:
		return p.MPI
	case trace.ParadigmOpenMP:
		if !p.OpenMP {
			return false
		}
		return r.Role == trace.RoleBarrier || r.Role == trace.RoleWait || r.Role == trace.RoleCollective
	case trace.ParadigmIO:
		return p.IO
	}
	return false
}

// DefaultSync is the paper's default: subtract all MPI and OpenMP runtime
// time from segments.
var DefaultSync SyncClassifier = ParadigmSync{MPI: true, OpenMP: true}

// NameSync classifies regions whose name starts with any of the given
// prefixes (e.g. "MPI_", "omp_") as synchronization. It is useful for
// traces whose definitions carry no paradigm information.
type NameSync []string

// IsSync implements SyncClassifier.
func (n NameSync) IsSync(r trace.Region) bool {
	for _, prefix := range n {
		if strings.HasPrefix(r.Name, prefix) {
			return true
		}
	}
	return false
}

// Segment is one invocation of the dominant function on one rank.
type Segment struct {
	Rank trace.Rank
	// Index is the per-rank invocation index (iteration number for
	// well-structured codes).
	Index int
	// Start and End bracket the invocation (inclusive time = End-Start).
	Start, End trace.Time
	// Sync is the time spent in synchronization regions inside the
	// segment, counted once per wall-clock interval even when sync
	// regions nest.
	Sync trace.Duration
}

// Inclusive returns the segment's full duration (the paper's "segment
// duration").
func (s *Segment) Inclusive() trace.Duration { return s.End - s.Start }

// SOS returns the synchronization-oblivious segment time.
func (s *Segment) SOS() trace.Duration { return s.Inclusive() - s.Sync }

// Matrix holds all segments of a trace, indexed by rank and invocation.
type Matrix struct {
	Region     trace.RegionID
	RegionName string
	// PerRank[r][i] is the i-th segment of rank r.
	PerRank [][]Segment
}

// Compute cuts tr into segments at the outermost invocations of region and
// computes their SOS-times with the given classifier (nil means
// DefaultSync). Nested self-invocations of the dominant region extend the
// enclosing segment rather than opening a new one.
func Compute(tr *trace.Trace, region trace.RegionID, cls SyncClassifier) (*Matrix, error) {
	return ComputeContext(context.Background(), tr, region, cls)
}

// ComputeContext is Compute observing ctx: the per-rank segmentation
// fan-out stops between ranks once ctx is cancelled and returns
// ctx.Err().
func ComputeContext(ctx context.Context, tr *trace.Trace, region trace.RegionID, cls SyncClassifier) (*Matrix, error) {
	mask, err := Prepare(tr.Regions, region, cls)
	if err != nil {
		return nil, err
	}
	names := regionNames(tr.Regions)
	perRank, err := parallel.MapCtx(ctx, tr.NumRanks(), func(rank int) ([]Segment, error) {
		s := newStreamSegmenter(trace.Rank(rank), region, mask, names)
		for _, ev := range tr.Procs[rank].Events {
			if err := s.Feed(ev); err != nil {
				return nil, err
			}
		}
		return s.Finish()
	})
	if err != nil {
		return nil, err
	}
	return &Matrix{Region: region, RegionName: tr.Region(region).Name, PerRank: perRank}, nil
}

// NumRanks returns the number of ranks covered by the matrix.
func (m *Matrix) NumRanks() int { return len(m.PerRank) }

// TotalSegments returns the total segment count across all ranks.
func (m *Matrix) TotalSegments() int {
	n := 0
	for _, segs := range m.PerRank {
		n += len(segs)
	}
	return n
}

// Iterations returns the smallest per-rank segment count — the number of
// complete "columns" when segments are aligned by invocation index.
func (m *Matrix) Iterations() int {
	if len(m.PerRank) == 0 {
		return 0
	}
	min := len(m.PerRank[0])
	for _, segs := range m.PerRank[1:] {
		if len(segs) < min {
			min = len(segs)
		}
	}
	return min
}

// Rectangular reports whether every rank has the same number of segments
// (the normal case for structured SPMD codes).
func (m *Matrix) Rectangular() bool {
	if len(m.PerRank) == 0 {
		return true
	}
	n := len(m.PerRank[0])
	for _, segs := range m.PerRank[1:] {
		if len(segs) != n {
			return false
		}
	}
	return true
}

// Column returns the segments with invocation index iter across all ranks
// that have one.
func (m *Matrix) Column(iter int) []Segment {
	out := make([]Segment, 0, len(m.PerRank))
	for _, segs := range m.PerRank {
		if iter < len(segs) {
			out = append(out, segs[iter])
		}
	}
	return out
}

// SOSValues flattens all SOS-times (nanoseconds) into one float64 slice,
// rank-major.
func (m *Matrix) SOSValues() []float64 {
	out := make([]float64, 0, m.TotalSegments())
	for _, segs := range m.PerRank {
		for i := range segs {
			out = append(out, float64(segs[i].SOS()))
		}
	}
	return out
}

// InclusiveValues flattens all inclusive durations into one float64 slice,
// rank-major.
func (m *Matrix) InclusiveValues() []float64 {
	out := make([]float64, 0, m.TotalSegments())
	for _, segs := range m.PerRank {
		for i := range segs {
			out = append(out, float64(segs[i].Inclusive()))
		}
	}
	return out
}

// RankSOS returns the SOS-times of one rank in invocation order.
func (m *Matrix) RankSOS(rank trace.Rank) []float64 {
	segs := m.PerRank[rank]
	out := make([]float64, len(segs))
	for i := range segs {
		out[i] = float64(segs[i].SOS())
	}
	return out
}

// ColumnSOS returns the SOS-times of one iteration across ranks.
func (m *Matrix) ColumnSOS(iter int) []float64 {
	col := m.Column(iter)
	out := make([]float64, len(col))
	for i := range col {
		out[i] = float64(col[i].SOS())
	}
	return out
}

// OverlayMetric converts the matrix into an absolute metric, sampling each
// segment's SOS-time at the segment start, and appends it to tr's
// definitions and event streams under the given metric name. This realizes
// the paper's visualization strategy of encoding SOS-times as a new metric
// counter overlaid on existing timeline views. It returns the new metric's
// ID.
func (m *Matrix) OverlayMetric(tr *trace.Trace, name string) trace.MetricID {
	id := tr.AddMetric(name, "ns", trace.MetricAbsolute)
	for rank, segs := range m.PerRank {
		for i := range segs {
			tr.Append(trace.Rank(rank), trace.Sample(segs[i].Start, id, float64(segs[i].SOS())))
		}
	}
	tr.SortEvents()
	return id
}
