package segment_test

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"perfvar/internal/core/segment"
	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
	"perfvar/internal/trace/tracetest"
)

// Property: the per-rank pass cuts every tracked region's segments from
// its call-stack replay's closed invocations (CandidateSet.Add), walking
// no stack of the set's own. On random well-nested traces — tracked
// regions that recurse, sync regions nested in tracked ones and in each
// other — the pass's segments of every tracked region equal the
// StreamSegmenter's and the interval-union oracle's, under a classifier
// that subtracts MPI and OpenMP sync and one that subtracts nothing, and
// under budgets small enough to evict into the pass's fallback.
func TestPassSegmentsMatchReferenceProperty(t *testing.T) {
	ctx := context.Background()
	classifiers := []segment.SyncClassifier{segment.DefaultSync, segment.ParadigmSync{}}
	var kept, evicted int
	f := func(seed int64, small uint8) bool {
		tr := tracetest.Nested(seed, 3)
		budget := 0 // the default: nothing is evicted
		if small%2 == 0 {
			budget = 1 + int(small/2)%8
		}
		for _, cls := range classifiers {
			mask := segment.SyncMask(tr.Regions, cls)
			track := make([]bool, len(mask))
			for r := range track {
				track[r] = !mask[r]
			}
			p, err := rankpass.Run(ctx, tr, rankpass.Config{Replay: true, Track: track, SyncMask: mask, Budget: budget, Stop: true})
			if err != nil {
				t.Logf("seed %d: pass: %v", seed, err)
				return false
			}
			for r, tracked := range track {
				if !tracked {
					continue
				}
				region, name := trace.RegionID(r), tr.Regions[r].Name
				for _, pr := range p.Ranks {
					if _, ok := pr.Cand.Segments(region); ok {
						kept++
					} else {
						evicted++
					}
				}
				got, err := p.Segments(ctx, region, name, mask)
				if err != nil {
					t.Logf("seed %d region %s: Segments: %v", seed, name, err)
					return false
				}
				for rank, proc := range tr.Procs {
					want := segment.RefSegments(trace.Rank(rank), proc.Events, region, mask)
					ss := segment.NewStreamSegmenter(trace.Rank(rank), region, name, mask)
					for _, ev := range proc.Events {
						if err := ss.Feed(ev); err != nil {
							t.Logf("seed %d: StreamSegmenter: %v", seed, err)
							return false
						}
					}
					seg, err := ss.Finish()
					if err != nil {
						t.Logf("seed %d: StreamSegmenter: %v", seed, err)
						return false
					}
					want, seg, pass := segment.NilIfEmpty(want), segment.NilIfEmpty(seg), segment.NilIfEmpty(got[rank])
					if !reflect.DeepEqual(pass, want) || !reflect.DeepEqual(seg, want) {
						t.Logf("seed %d rank %d region %s budget %d:\n pass   %+v\n stream %+v\n oracle %+v", seed, rank, name, budget, pass, seg, want)
						return false
					}
				}
			}
			p.Release()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Both paths of Pass.Segments ran: segments kept by the candidate
	// sets, and evicted ones re-streamed.
	if kept == 0 || evicted == 0 {
		t.Fatalf("candidate sets kept %d and evicted %d region segment lists; want both", kept, evicted)
	}
}
