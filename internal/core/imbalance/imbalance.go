// Package imbalance implements step 3 of the paper's methodology: the
// analysis of runtime variations over the SOS-time segment matrix. It
// ranks hotspot segments (the red areas of the paper's visualizations),
// summarizes per-rank and per-iteration behavior, and detects gradual
// slowdown trends such as the one in the COSMO-SPECS case study.
package imbalance

import (
	"context"
	"math"
	"sort"

	"perfvar/internal/callstack"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/stats"
	"perfvar/internal/trace"
)

// Hotspot is a segment whose SOS-time deviates notably from the rest of
// the run.
type Hotspot struct {
	Segment segment.Segment
	// Score is the robust z-score of the segment's SOS-time against the
	// distribution of all SOS-times of the matrix.
	Score float64
}

// RankStats summarizes one rank's SOS-time behavior.
type RankStats struct {
	Rank     trace.Rank
	Segments int
	MeanSOS  float64
	MaxSOS   float64
	TotalSOS float64
}

// IterationStats summarizes one invocation index (iteration) across ranks.
type IterationStats struct {
	Index   int
	MeanSOS float64
	MaxSOS  float64
	// Imbalance is max/mean SOS of the iteration (1 = perfectly balanced).
	Imbalance float64
	// Culprit is the rank with the highest SOS-time in the iteration.
	Culprit trace.Rank
}

// Trend describes the evolution of per-iteration mean SOS-times over the
// run, fitted by least squares.
type Trend struct {
	// Slope is in SOS nanoseconds per iteration.
	Slope float64
	// Intercept is the fitted mean SOS of iteration 0.
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// Increasing reports a sustained slowdown: positive slope, a fit that
	// explains at least half the variance, and a projected total increase
	// of at least 10 % of the mean SOS over the run.
	Increasing bool
}

// Options tune the analysis.
type Options struct {
	// ZThreshold is the robust z-score above which a segment becomes a
	// hotspot. Zero means 3.5 (a common robust-outlier cutoff).
	ZThreshold float64
	// TopK caps the number of reported hotspots (highest scores first).
	// Zero means no cap.
	TopK int
	// MinRelDeviation is the minimal relative excess over the median a
	// segment needs to qualify as a hotspot, guarding against infinite
	// robust z-scores on quantized, near-constant data (where the MAD is
	// zero and any deviation would otherwise score +Inf). Zero means 5 %;
	// negative disables the guard.
	MinRelDeviation float64
	// PerIteration scores each segment against its own iteration's
	// distribution (column median/MAD) instead of the whole run's. Use
	// this when the run has a global trend — e.g. a gradual slowdown —
	// that would otherwise make every late segment a "hotspot" and mask
	// the rank-relative outliers the analyst actually wants.
	PerIteration bool
}

func (o Options) zThreshold() float64 {
	if o.ZThreshold == 0 {
		return 3.5
	}
	return o.ZThreshold
}

func (o Options) minRelDeviation() float64 {
	if o.MinRelDeviation == 0 {
		return 0.05
	}
	if o.MinRelDeviation < 0 {
		return 0
	}
	return o.MinRelDeviation
}

// Analysis is the complete variation-analysis result for one segment
// matrix.
type Analysis struct {
	Matrix *segment.Matrix
	// Median and MAD describe the global SOS-time distribution used for
	// hotspot scoring.
	Median, MAD float64
	// Hotspots are outlier segments, sorted by descending score.
	Hotspots []Hotspot
	// Ranks holds per-rank summaries, indexed by rank.
	Ranks []RankStats
	// Iterations holds per-invocation-index summaries for the first
	// Matrix.Iterations() complete columns.
	Iterations []IterationStats
	// Trend is the slowdown fit over Iterations.
	Trend Trend
}

// Analyze computes the variation analysis of m. The per-rank and
// per-iteration passes fan out across CPUs; results are merged in rank
// (respectively iteration) order, so the output is identical to a serial
// scan.
func Analyze(m *segment.Matrix, opts Options) *Analysis {
	a, _ := AnalyzeContext(context.Background(), m, opts)
	return a
}

// AnalyzeContext is Analyze observing ctx: each fan-out stops between
// items once ctx is cancelled, and the half-built analysis is discarded
// (nil result, ctx.Err()).
func AnalyzeContext(ctx context.Context, m *segment.Matrix, opts Options) (*Analysis, error) {
	a := &Analysis{Matrix: m}
	a.Median, a.MAD = stats.MedianMAD(m.SOSValues())

	threshold := opts.zThreshold()
	relDev := opts.minRelDeviation()
	var colMed, colMAD []float64
	if opts.PerIteration {
		iters := m.Iterations()
		colMed = make([]float64, iters)
		colMAD = make([]float64, iters)
		if err := parallel.DoCtx(ctx, iters, func(it int) {
			colMed[it], colMAD[it] = stats.MedianMAD(m.ColumnSOS(it))
		}); err != nil {
			return nil, err
		}
	}
	perRankHot, err := parallel.MapCtx(ctx, m.NumRanks(), func(rank int) ([]Hotspot, error) {
		var hot []Hotspot
		segs := m.PerRank[rank]
		for i := range segs {
			sos := float64(segs[i].SOS())
			med, mad := a.Median, a.MAD
			if opts.PerIteration {
				if segs[i].Index >= len(colMed) {
					continue // ragged tail: no column statistics
				}
				med, mad = colMed[segs[i].Index], colMAD[segs[i].Index]
			}
			z := stats.RobustZ(sos, med, mad)
			if z > threshold && sos >= med*(1+relDev) {
				hot = append(hot, Hotspot{Segment: segs[i], Score: z})
			}
		}
		return hot, nil
	})
	if err != nil {
		return nil, err
	}
	for _, hot := range perRankHot {
		a.Hotspots = append(a.Hotspots, hot...)
	}
	sort.Slice(a.Hotspots, func(i, j int) bool {
		hi, hj := a.Hotspots[i], a.Hotspots[j]
		if hi.Score != hj.Score {
			return hi.Score > hj.Score
		}
		if si, sj := hi.Segment.SOS(), hj.Segment.SOS(); si != sj {
			return si > sj
		}
		if hi.Segment.Rank != hj.Segment.Rank {
			return hi.Segment.Rank < hj.Segment.Rank
		}
		return hi.Segment.Index < hj.Segment.Index
	})
	if opts.TopK > 0 && len(a.Hotspots) > opts.TopK {
		a.Hotspots = a.Hotspots[:opts.TopK]
	}

	a.Ranks = make([]RankStats, m.NumRanks())
	if err := parallel.DoCtx(ctx, m.NumRanks(), func(rank int) {
		segs := m.PerRank[rank]
		rs := RankStats{Rank: trace.Rank(rank), Segments: len(segs)}
		for i := range segs {
			sos := float64(segs[i].SOS())
			rs.TotalSOS += sos
			if sos > rs.MaxSOS {
				rs.MaxSOS = sos
			}
		}
		if len(segs) > 0 {
			rs.MeanSOS = rs.TotalSOS / float64(len(segs))
		}
		a.Ranks[rank] = rs
	}); err != nil {
		return nil, err
	}

	iters := m.Iterations()
	a.Iterations = make([]IterationStats, iters)
	if err := parallel.DoCtx(ctx, iters, func(it int) {
		col := m.Column(it)
		is := IterationStats{Index: it, Culprit: trace.NoRank}
		vals := make([]float64, len(col))
		for i, seg := range col {
			sos := float64(seg.SOS())
			vals[i] = sos
			if sos > is.MaxSOS || is.Culprit == trace.NoRank {
				is.MaxSOS = sos
				is.Culprit = seg.Rank
			}
		}
		is.MeanSOS = stats.Mean(vals)
		is.Imbalance = stats.ImbalanceRatio(vals)
		a.Iterations[it] = is
	}); err != nil {
		return nil, err
	}

	a.Trend = fitTrend(a.Iterations)
	return a, nil
}

func fitTrend(iters []IterationStats) Trend {
	xs := make([]float64, len(iters))
	ys := make([]float64, len(iters))
	for i, is := range iters {
		xs[i] = float64(i)
		ys[i] = is.MeanSOS
	}
	slope, intercept, r2 := stats.LinearRegression(xs, ys)
	tr := Trend{Slope: slope, Intercept: intercept, R2: r2}
	mean := stats.Mean(ys)
	if len(iters) >= 3 && slope > 0 && r2 >= 0.5 && mean > 0 {
		totalIncrease := slope * float64(len(iters)-1)
		tr.Increasing = totalIncrease >= 0.1*mean
	}
	return tr
}

// RankTrend is the slowdown fit of one rank's SOS-time series.
type RankTrend struct {
	Rank trace.Rank
	// Slope is in SOS nanoseconds per iteration.
	Slope float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// RankTrends fits a per-rank slowdown line over each rank's SOS series
// and returns the ranks ordered by descending slope (restricted to fits
// with r² ≥ minR2, so noise does not rank). This localizes "who is
// getting slower": in the COSMO-SPECS case study only the cloud-owning
// ranks have steep slopes.
func RankTrends(m *segment.Matrix, minR2 float64) []RankTrend {
	type fit struct {
		t  RankTrend
		ok bool
	}
	fits, _ := parallel.Map(len(m.PerRank), func(rank int) (fit, error) {
		ys := m.RankSOS(trace.Rank(rank))
		if len(ys) < 3 {
			return fit{}, nil
		}
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		slope, _, r2 := stats.LinearRegression(xs, ys)
		if r2 < minR2 {
			return fit{}, nil
		}
		return fit{t: RankTrend{Rank: trace.Rank(rank), Slope: slope, R2: r2}, ok: true}, nil
	})
	var out []RankTrend
	for _, f := range fits {
		if f.ok {
			out = append(out, f.t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slope != out[j].Slope {
			return out[i].Slope > out[j].Slope
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// HotspotRanks returns the distinct ranks that own hotspots, ordered by
// each rank's highest hotspot score (descending).
func (a *Analysis) HotspotRanks() []trace.Rank {
	best := make(map[trace.Rank]float64)
	for _, h := range a.Hotspots {
		if s, ok := best[h.Segment.Rank]; !ok || h.Score > s {
			best[h.Segment.Rank] = h.Score
		}
	}
	ranks := make([]trace.Rank, 0, len(best))
	for r := range best {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool {
		si, sj := best[ranks[i]], best[ranks[j]]
		if si != sj {
			return si > sj
		}
		return ranks[i] < ranks[j]
	})
	return ranks
}

// SlowestRank returns the rank with the highest total SOS-time, or NoRank
// for an empty analysis.
func (a *Analysis) SlowestRank() trace.Rank {
	best := trace.NoRank
	bestTotal := math.Inf(-1)
	for _, rs := range a.Ranks {
		if rs.TotalSOS > bestTotal {
			bestTotal = rs.TotalSOS
			best = rs.Rank
		}
	}
	return best
}

// ParadigmFractionTimeline bins the whole run into bins equal-width time
// windows and returns, per window, the fraction of aggregate rank-time
// spent inside regions of paradigm par. This reproduces observations such
// as "the fraction of MPI increases towards the end of the run" (paper
// Fig. 4a).
func ParadigmFractionTimeline(tr *trace.Trace, par trace.Paradigm, bins int) []float64 {
	if bins <= 0 {
		return nil
	}
	first, last := tr.Span()
	mask := callstack.ParadigmMask(tr.Regions, par)
	// Only a cancelled context fails the fan-out, and this one is never
	// cancelled.
	frac, _ := NewBinner(first, last, bins).Fractions(context.Background(), tr.NumRanks(), func(rank int, c *BinCursor) {
		callstack.EachInterval(tr.Procs[rank].Events, mask, c.Add)
	})
	return frac
}

// Binner is the one binning kernel behind ParadigmFractionTimeline and
// the streaming engine's MPI timeline: it sums, per equal-width time bin
// of the span [first, last], the nanoseconds a set of per-rank intervals
// covers. Bin b covers [first + span*b/bins, first + span*(b+1)/bins)
// with truncating integer bounds, computed once. Accumulating in int64
// keeps every addend exact and the sums independent of order and of how
// the ranks are spread over workers; the one float64 conversion happens
// after the final sum, which is what makes the materialized and
// streaming fractions byte-identical.
type Binner struct {
	first, span trace.Time
	edges       []trace.Time // edges[b] is bin b's start, edges[bins] = last
}

// NewBinner returns a binner of bins > 0 bins over [first, last].
func NewBinner(first, last trace.Time, bins int) *Binner {
	b := &Binner{first: first, span: last - first, edges: make([]trace.Time, bins+1)}
	for k := range b.edges {
		b.edges[k] = first + b.span*trace.Time(k)/trace.Time(bins)
	}
	return b
}

// BinCursor bins one rank's intervals into a worker's accumulator. It
// walks the bin edges alongside the intervals, so a rank's time-ordered
// intervals cost no division; an interval that starts before the
// cursor's bin, or cursorReach or more bins past it, is placed by
// division instead, so intervals in any order, or far apart, cost
// O(1 + the bins they overlap) each.
type BinCursor struct {
	b   *Binner
	acc []int64
	k   int // the bin the last interval started in
}

// cursorReach is how many bin edges a cursor walks forward before it
// places an interval by division.
const cursorReach = 4

// Add adds the part of [from, to) inside each bin it overlaps.
func (c *BinCursor) Add(from, to trace.Time) {
	b, n := c.b, len(c.acc)
	if to <= from || b.span <= 0 {
		return
	}
	k := c.k
	if from < b.edges[k] || from >= b.edges[min(k+cursorReach, n)] {
		// The first bin that can overlap: its start is at most from,
		// and every earlier bin ends at or before from.
		k = 0
		if from > b.first {
			k = int(min((from-b.first)*trace.Time(n)/b.span, trace.Time(n)))
		}
	}
	for k < n && b.edges[k+1] <= from {
		k++
	}
	c.k = k
	for ; k < n && b.edges[k] < to; k++ {
		if lo, hi := max(from, b.edges[k]), min(to, b.edges[k+1]); hi > lo {
			c.acc[k] += int64(hi - lo)
		}
	}
}

// sum bins every rank's intervals, handed to its cursor by rank(r, c),
// on the worker pool: each worker sums into its own accumulator, and the
// accumulators are added up once every rank is binned, so memory is
// O(workers × bins) whatever the rank count.
func (b *Binner) sum(ctx context.Context, nranks int, rank func(r int, c *BinCursor)) ([]int64, error) {
	bins := len(b.edges) - 1
	accs, err := parallel.DoWorkersCtx(ctx, nranks, func() []int64 { return make([]int64, bins) }, func(acc []int64, r int) {
		rank(r, &BinCursor{b: b, acc: acc})
	})
	if err != nil {
		return nil, err
	}
	total := make([]int64, bins)
	for _, acc := range accs {
		for k, v := range acc {
			total[k] += v
		}
	}
	return total, nil
}

// Fractions bins every rank's intervals as sum does and returns each
// bin's covered time as a fraction of the bin's aggregate time across
// nranks ranks; all zero for an empty span.
func (b *Binner) Fractions(ctx context.Context, nranks int, rank func(r int, c *BinCursor)) ([]float64, error) {
	acc, err := b.sum(ctx, nranks, rank)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(acc))
	if b.span <= 0 {
		return out, nil
	}
	binWidth := float64(b.span) / float64(len(acc))
	denom := binWidth * float64(nranks)
	for i, v := range acc {
		out[i] = float64(v) / denom
	}
	return out, nil
}

// MPIFractionTimeline is ParadigmFractionTimeline for the MPI paradigm.
func MPIFractionTimeline(tr *trace.Trace, bins int) []float64 {
	return ParadigmFractionTimeline(tr, trace.ParadigmMPI, bins)
}

// ParadigmFractionBetween returns the fraction of aggregate rank-time in
// the window [from, to] spent inside regions of paradigm par. Use it to
// measure phase-local overheads, e.g. the MPI share of the iteration phase
// excluding initialization.
func ParadigmFractionBetween(tr *trace.Trace, par trace.Paradigm, from, to trace.Time) float64 {
	if to <= from {
		return 0
	}
	// int64 until the final division, as in ParadigmFractionTimeline.
	var inPar trace.Duration
	mask := callstack.ParadigmMask(tr.Regions, par)
	for _, p := range tr.Procs {
		callstack.EachInterval(p.Events, mask, func(a, b trace.Time) {
			if lo, hi := max(a, from), min(b, to); hi > lo {
				inPar += hi - lo
			}
		})
	}
	return float64(inPar) / (float64(to-from) * float64(tr.NumRanks()))
}
