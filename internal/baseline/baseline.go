// Package baseline implements the comparison approaches the paper
// positions itself against:
//
//   - flat profiling (TAU/HPCToolkit-style aggregates), which averages
//     away variations over time,
//   - plain inclusive segment durations without the SOS subtraction,
//     which hide the causing rank behind synchronization wait time, and
//   - representative-process clustering (Mohror et al.), which drops
//     structurally similar ranks and with them transient hotspots.
//
// The ablation benchmarks use these to quantify why each of the paper's
// design choices matters.
package baseline

import (
	"context"
	"math"

	"perfvar/internal/callstack"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

// RankProfile is a flat per-rank profile: total exclusive time per region.
// This is the granularity a parallel profiler reports — everything about
// *when* time was spent is gone.
type RankProfile struct {
	Rank trace.Rank
	// ExclusiveByRegion is indexed by RegionID.
	ExclusiveByRegion []float64
	// Total is the summed exclusive time.
	Total float64
}

// RankProfiles computes the flat per-rank profiles of tr. It is the
// ctx-free wrapper over RankProfilesContext.
func RankProfiles(tr *trace.Trace) ([]RankProfile, error) {
	return RankProfilesContext(context.Background(), tr)
}

// RankProfilesContext is RankProfiles observing ctx between ranks: a
// cancelled request stops the per-rank replay instead of finishing the
// whole trace.
func RankProfilesContext(ctx context.Context, tr *trace.Trace) ([]RankProfile, error) {
	reps, err := callstack.ReplayTrace(ctx, tr)
	if err != nil {
		return nil, err
	}
	out := make([]RankProfile, len(reps))
	for rank := range reps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof := callstack.ProfileFromStreams(len(tr.Regions), reps[rank:rank+1])
		rp := RankProfile{
			Rank:              trace.Rank(rank),
			ExclusiveByRegion: make([]float64, len(tr.Regions)),
		}
		for id, reg := range prof.Regions {
			rp.ExclusiveByRegion[id] = float64(reg.SumExclusive)
			rp.Total += float64(reg.SumExclusive)
		}
		out[rank] = rp
	}
	return out, nil
}

// MPIFraction returns the fraction of total exclusive time the profiled
// ranks spend in MPI regions, in [0, 1] (0 when the profiles are empty).
// It is the run-wide communication share the run-history API tracks
// between a project's runs.
func MPIFraction(tr *trace.Trace, profiles []RankProfile) float64 {
	var mpi, total float64
	for _, rp := range profiles {
		for id, v := range rp.ExclusiveByRegion {
			if tr.Region(trace.RegionID(id)).Paradigm == trace.ParadigmMPI {
				mpi += v
			}
		}
		total += rp.Total
	}
	if total <= 0 {
		return 0
	}
	return mpi / total
}

// SlowestByProfile returns the rank with the highest total exclusive time
// in user code — the best a profiler can do to localize an imbalance.
func SlowestByProfile(tr *trace.Trace, profiles []RankProfile) trace.Rank {
	best := trace.NoRank
	bestV := math.Inf(-1)
	for _, rp := range profiles {
		var user float64
		for id, v := range rp.ExclusiveByRegion {
			if tr.Region(trace.RegionID(id)).Paradigm == trace.ParadigmUser {
				user += v
			}
		}
		if user > bestV {
			bestV = user
			best = rp.Rank
		}
	}
	return best
}

// CulpritByInclusive returns the rank with the longest *inclusive*
// segment duration in iteration iter — the naive analysis of the paper's
// Fig. 3 (middle), which synchronization wait time renders useless: after
// a barrier all ranks show the same duration.
func CulpritByInclusive(m *segment.Matrix, iter int) trace.Rank {
	return culprit(m, iter, func(s *segment.Segment) float64 { return float64(s.Inclusive()) })
}

// CulpritBySOS returns the rank with the highest SOS-time in iteration
// iter — the paper's analysis (Fig. 3 bottom).
func CulpritBySOS(m *segment.Matrix, iter int) trace.Rank {
	return culprit(m, iter, func(s *segment.Segment) float64 { return float64(s.SOS()) })
}

func culprit(m *segment.Matrix, iter int, value func(*segment.Segment) float64) trace.Rank {
	col := m.Column(iter)
	best := trace.NoRank
	bestV := math.Inf(-1)
	for i := range col {
		if v := value(&col[i]); v > bestV {
			bestV = v
			best = col[i].Rank
		}
	}
	return best
}

// CulpritMargin returns how clearly iteration iter separates its culprit:
// (max − second-max) / max of the given measure, in [0, 1]. A barrier-
// equalized inclusive measure yields a margin near 0 (no separation); the
// SOS measure yields a large margin when one rank computes longer.
func CulpritMargin(m *segment.Matrix, iter int, useSOS bool) float64 {
	col := m.Column(iter)
	if len(col) < 2 {
		return 0
	}
	max1, max2 := math.Inf(-1), math.Inf(-1)
	for i := range col {
		v := float64(col[i].Inclusive())
		if useSOS {
			v = float64(col[i].SOS())
		}
		if v > max1 {
			max2 = max1
			max1 = v
		} else if v > max2 {
			max2 = v
		}
	}
	if max1 <= 0 {
		return 0
	}
	return (max1 - max2) / max1
}

// ClusterRepresentatives groups ranks whose profile vectors are within
// relTol relative Euclidean distance of a cluster's founding member and
// returns the representative (founding) rank of each cluster plus the
// cluster index of every rank. This models the representative-stream
// selection of Mohror et al.: only the representatives' event streams
// would be kept for visualization.
func ClusterRepresentatives(profiles []RankProfile, relTol float64) (reps []trace.Rank, clusterOf []int) {
	clusterOf = make([]int, len(profiles))
	var founders [][]float64
	for i, rp := range profiles {
		assigned := -1
		for c, f := range founders {
			if relDistance(rp.ExclusiveByRegion, f) <= relTol {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			assigned = len(founders)
			founders = append(founders, rp.ExclusiveByRegion)
			reps = append(reps, rp.Rank)
		}
		clusterOf[i] = assigned
	}
	return reps, clusterOf
}

// relDistance is the Euclidean distance of a and b relative to the norm of
// the founder vector b (0 when both are zero).
func relDistance(a, b []float64) float64 {
	var d2, n2 float64
	for i := range b {
		var av float64
		if i < len(a) {
			av = a[i]
		}
		diff := av - b[i]
		d2 += diff * diff
		n2 += b[i] * b[i]
	}
	if n2 == 0 {
		if d2 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(d2 / n2)
}

// Retained reports whether rank appears in the representative set.
func Retained(reps []trace.Rank, rank trace.Rank) bool {
	for _, r := range reps {
		if r == rank {
			return true
		}
	}
	return false
}
