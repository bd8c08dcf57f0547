// Package dominant implements step 1 of the paper's methodology: the
// automatic identification of time-dominant functions.
//
// A time-dominant function partitions the application run into segments
// that are comparable across ranks and over time. Following Section IV of
// the paper, for p processing elements the dominant function is the
// function invoked at least 2p times with the highest aggregated inclusive
// time. The 2p threshold rejects top call-level functions such as main,
// which are entered exactly once per rank and therefore provide no
// segmentation of the run.
package dominant

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"perfvar/internal/callstack"
	"perfvar/internal/trace"
)

// ErrNoCandidate is returned when no function satisfies the invocation
// threshold.
var ErrNoCandidate = errors.New("dominant: no function satisfies the invocation threshold")

// Candidate describes one function considered for dominance.
type Candidate struct {
	Region trace.RegionID
	Name   string
	// Invocations is the total invocation count across all ranks.
	Invocations int64
	// AggInclusive is the aggregated inclusive time across all ranks
	// (self-nested recursive invocations counted once, see callstack).
	AggInclusive trace.Duration
	// Share is AggInclusive divided by the summed per-rank run spans;
	// 1.0 would mean the function covers every rank's entire run.
	Share float64
}

// Options configure the selection heuristic.
type Options struct {
	// Multiplier scales the invocation threshold: a candidate must be
	// invoked at least Multiplier·p times. The paper uses 2; zero means 2.
	Multiplier int
	// MinInvocations, when positive, overrides the Multiplier·p threshold
	// with an absolute invocation count.
	MinInvocations int64
	// IncludeSync admits MPI/OpenMP regions as candidates. The default
	// (false) excludes them: a pure synchronization region would yield
	// segments whose SOS-time is identically zero, defeating the analysis.
	IncludeSync bool
}

func (o Options) threshold(ranks int) int64 {
	if o.MinInvocations > 0 {
		return o.MinInvocations
	}
	mult := o.Multiplier
	if mult <= 0 {
		mult = 2
	}
	return int64(mult) * int64(ranks)
}

// Selection is the result of dominant-function identification.
type Selection struct {
	// Dominant is the selected time-dominant function: the eligible
	// candidate with the highest aggregated inclusive time.
	Dominant Candidate
	// Ranking lists all eligible candidates, sorted by aggregated
	// inclusive time (descending, ties by RegionID). Ranking[0] equals
	// Dominant. Later entries with higher invocation counts are the
	// natural choices for finer-grained re-segmentation (paper Fig. 5c).
	Ranking []Candidate
	// Rejected lists functions with non-zero inclusive time that failed
	// the invocation threshold (e.g. main), sorted like Ranking. Reports
	// surface these to explain why they were not chosen.
	Rejected []Candidate
	// Threshold is the applied minimal invocation count (2p by default).
	Threshold int64
}

// Finer returns the best candidate for a finer segmentation than cur: the
// highest-ranked eligible candidate with strictly more invocations than
// cur has. It reports false if no such candidate exists.
func (s Selection) Finer(cur trace.RegionID) (Candidate, bool) {
	var curInv int64 = -1
	for _, c := range append(append([]Candidate{}, s.Ranking...), s.Rejected...) {
		if c.Region == cur {
			curInv = c.Invocations
			break
		}
	}
	for _, c := range s.Ranking {
		if c.Region != cur && c.Invocations > curInv {
			return c, true
		}
	}
	return Candidate{}, false
}

// Candidate returns the ranking entry for region r, if eligible.
func (s Selection) Candidate(r trace.RegionID) (Candidate, bool) {
	for _, c := range s.Ranking {
		if c.Region == r {
			return c, true
		}
	}
	return Candidate{}, false
}

// Select identifies the time-dominant function of tr.
func Select(tr *trace.Trace, opts Options) (Selection, error) {
	return SelectContext(context.Background(), tr, opts)
}

// SelectContext is Select observing ctx through the underlying profile
// replay, so a cancelled analysis request stops selecting early.
func SelectContext(ctx context.Context, tr *trace.Trace, opts Options) (Selection, error) {
	prof, err := callstack.ProfileOf(ctx, tr)
	if err != nil {
		if ctx.Err() != nil {
			return Selection{}, ctx.Err()
		}
		return Selection{}, fmt.Errorf("dominant: %w", err)
	}
	return SelectFromProfile(tr, prof, opts)
}

// SelectFromProfile identifies the time-dominant function using an already
// computed flat profile (avoids re-replaying large traces).
func SelectFromProfile(tr *trace.Trace, prof *callstack.Profile, opts Options) (Selection, error) {
	return SelectFromProfileDefs(tr.Regions, tr.NumRanks(), prof, opts)
}

// SelectFromProfileDefs is SelectFromProfile for consumers that have only
// an archive's region definitions and rank count, not a materialized
// trace — the selection step of the streaming analysis engine.
func SelectFromProfileDefs(regions []trace.Region, nranks int, prof *callstack.Profile, opts Options) (Selection, error) {
	threshold := opts.threshold(nranks)
	sel := Selection{Threshold: threshold}
	total := prof.TotalTime

	for _, rp := range prof.Regions {
		if rp.Count == 0 || rp.SumInclusive == 0 {
			continue
		}
		def := regions[rp.Region]
		if !opts.IncludeSync && def.Paradigm != trace.ParadigmUser {
			continue
		}
		c := Candidate{
			Region:       rp.Region,
			Name:         def.Name,
			Invocations:  rp.Count,
			AggInclusive: rp.SumInclusive,
		}
		if total > 0 {
			c.Share = float64(rp.SumInclusive) / float64(total)
		}
		if rp.Count >= threshold {
			sel.Ranking = append(sel.Ranking, c)
		} else {
			sel.Rejected = append(sel.Rejected, c)
		}
	}

	byTime := func(cs []Candidate) func(i, j int) bool {
		return func(i, j int) bool {
			if cs[i].AggInclusive != cs[j].AggInclusive {
				return cs[i].AggInclusive > cs[j].AggInclusive
			}
			return cs[i].Region < cs[j].Region
		}
	}
	sort.Slice(sel.Ranking, byTime(sel.Ranking))
	sort.Slice(sel.Rejected, byTime(sel.Rejected))

	if len(sel.Ranking) == 0 {
		return sel, fmt.Errorf("%w (need ≥ %d invocations over %d ranks)", ErrNoCandidate, threshold, nranks)
	}
	sel.Dominant = sel.Ranking[0]
	return sel, nil
}
