package causality

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

// referenceColumnEdges is the map-keyed column aggregation columnEdges
// replaced, kept as a test-only reference.
func referenceColumnEdges(in Input, pairIdx []int32, col int) []Edge {
	type ekey struct {
		causer, waiter Node
		kind           WaitKind
	}
	agg := map[ekey]int{}
	var out []Edge
	for _, pi := range pairIdx {
		e, ok := classifyPair(in, pi, col)
		if !ok {
			continue
		}
		k := ekey{e.Causer, e.Waiter, e.Kind}
		if i, ok := agg[k]; ok {
			out[i].Wait += e.Wait
			out[i].Slack += e.Slack
			out[i].Count++
			continue
		}
		agg[k] = len(out)
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Waiter != b.Waiter {
			return nodeLess(a.Waiter, b.Waiter)
		}
		if a.Causer != b.Causer {
			return nodeLess(a.Causer, b.Causer)
		}
		return a.Kind < b.Kind
	})
	return out
}

// randomColumn draws one waiter column: ranks with one segment each,
// receives with and without a recorded wait, and waiters whose causers
// range from one rank (few keys) to every rank in several segments
// (more keys than a linear search takes). The pairs come in (receiver
// rank, receive event) order when sorted is set, shuffled otherwise.
func randomColumn(rng *rand.Rand, sorted bool) (Input, []int32) {
	nranks := 1 + rng.Intn(64)
	in := Input{Matrix: &segment.Matrix{PerRank: make([][]segment.Segment, nranks)}, Scans: make([]*RankScanner, nranks)}
	for rank := range in.Matrix.PerRank {
		for i := 0; i < 4; i++ {
			in.Matrix.PerRank[rank] = append(in.Matrix.PerRank[rank], segment.Segment{
				Rank: trace.Rank(rank), Index: i, Start: trace.Time(100 * i), End: trace.Time(100*i + 99),
			})
		}
		in.Scans[rank] = &RankScanner{}
	}
	for rank := 0; rank < nranks; rank++ {
		fanIn := 1 + rng.Intn(nranks)
		for ev, n := 0, rng.Intn(3*maxRunKeys); ev < n; ev++ {
			wait := trace.Time(rng.Intn(400))
			if rng.Intn(8) != 0 {
				in.Scans[rank].recvWaits = append(in.Scans[rank].recvWaits, recvWaitRec{event: int32(ev), wait: wait})
			}
			in.Pairs = append(in.Pairs, msg(
				trace.Rank(rng.Intn(fanIn)), trace.Time(rng.Intn(450)),
				trace.Rank(rank), wait+trace.Time(rng.Intn(50)), ev,
			))
		}
	}
	idx := make([]int32, len(in.Pairs))
	for i := range idx {
		idx[i] = int32(i)
	}
	if !sorted {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return in, idx
}

func TestColumnEdgesMatchReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in, idx := randomColumn(rng, seed%4 != 0)
		want := referenceColumnEdges(in, idx, 2)
		pairIdx := append([]int32(nil), idx...)
		got := make([]Edge, len(pairIdx))
		got = got[:columnEdges(got, in, pairIdx, 2)]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d edges, want %d:\n got  %v\n want %v", seed, len(got), len(want), got, want)
		}
	}
}
