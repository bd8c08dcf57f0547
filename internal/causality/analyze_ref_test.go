package causality

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

// randomGraph draws a dependency graph for the Analyze property test:
// ragged segment counts (ranks with none included), nodes outside the
// matrix (segment -1), repeated and mutual late-sender edges (chains and
// cycles), late-receiver edges, zero waits, and collectives with and
// without blame. SOS-times and waits come from small ranges, so scores
// and column medians tie.
func randomGraph(rng *rand.Rand) *Graph {
	nranks := 1 + rng.Intn(24)
	m := &segment.Matrix{PerRank: make([][]segment.Segment, nranks)}
	for rank := range m.PerRank {
		t := trace.Time(0)
		for i, n := 0, rng.Intn(11); i < n; i++ {
			incl := trace.Duration(1 + rng.Intn(20))
			m.PerRank[rank] = append(m.PerRank[rank], segment.Segment{
				Rank: trace.Rank(rank), Index: i, Start: t, End: t + incl,
				Sync: trace.Duration(rng.Intn(int(incl) + 1)),
			})
			t += incl
		}
	}
	node := func() Node {
		rank := rng.Intn(nranks)
		return Node{Rank: trace.Rank(rank), Segment: rng.Intn(len(m.PerRank[rank])+1) - 1}
	}
	g := &Graph{Matrix: m, Ranks: nranks}
	for i, n := 0, rng.Intn(80); i < n; i++ {
		e := Edge{Causer: node(), Waiter: node(), Kind: LateSender, Count: 1 + rng.Intn(3)}
		if rng.Intn(5) == 0 {
			e.Kind, e.Slack = LateReceiver, trace.Duration(rng.Intn(30))
		} else {
			e.Wait = trace.Duration(rng.Intn(40))
		}
		g.Edges = append(g.Edges, e)
	}
	for occ, n := 0, rng.Intn(4); occ < n; occ++ {
		c := Collective{Occurrence: occ}
		for i, k := 0, 1+rng.Intn(nranks); i < k; i++ {
			blame := trace.Duration(0)
			if rng.Intn(2) == 0 {
				blame = trace.Duration(rng.Intn(50))
			}
			c.Arrivals = append(c.Arrivals, Arrival{Node: node(), Wait: trace.Duration(rng.Intn(50)), Blame: blame})
		}
		g.Collectives = append(g.Collectives, c)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		g.Unmatched = append(g.Unmatched, RankDep{
			From: trace.Rank(rng.Intn(nranks)), To: trace.Rank(rng.Intn(nranks)), Send: rng.Intn(2) == 0,
		})
	}
	return g
}

// TestAnalyzeMatchesReferenceProperty pins the dense accumulation to the
// map-based oracle: the Analysis JSON (scores rounded to nanoseconds,
// candidate order, per-rank totals) must be identical.
func TestAnalyzeMatchesReferenceProperty(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		opts := Options{MaxCandidates: rng.Intn(12)}
		got, err := json.Marshal(Analyze(g, opts))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(referenceAnalyze(g, opts))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("seed %d: Analyze differs from the reference\ngot  %s\nwant %s", seed, got, want)
		}
	}
}

// referenceAnalyze is the map-based Analyze that the dense accumulation
// replaced, kept as the property test's oracle: direct blame, origin
// scores, excess SOS-time and the propagator's memo all live in maps
// keyed by Node.
func referenceAnalyze(g *Graph, opts Options) *Analysis {
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = 32
	}
	an := &Analysis{Graph: g}

	// Direct blame per node and incoming late-sender waits per node.
	direct := map[Node]trace.Duration{}
	inEdges := map[Node][]Edge{}
	for _, e := range g.Edges {
		switch e.Kind {
		case LateSender:
			an.LateSenderWait += e.Wait
			an.LateSenderCount += e.Count
			direct[e.Causer] += e.Wait
			inEdges[e.Waiter] = append(inEdges[e.Waiter], e)
		case LateReceiver:
			an.LateReceiverSlack += e.Slack
			an.LateReceiverCount += e.Count
		}
	}
	for _, c := range g.Collectives {
		an.CollectiveCount++
		for _, a := range c.Arrivals {
			an.CollectiveWait += a.Wait
			if a.Blame > 0 {
				direct[a.Node] += a.Blame
			}
		}
	}

	// Wait-chain propagation: fold each node's direct blame back onto
	// its originating nodes.
	pr := &refPropagator{
		inEdges: inEdges,
		excess:  referenceExcessSOS(g.Matrix),
		memo:    map[Node][]share{},
		onPath:  map[Node]bool{},
	}
	blamed := make([]Node, 0, len(direct))
	for n := range direct {
		blamed = append(blamed, n)
	}
	sort.Slice(blamed, func(i, j int) bool { return nodeLess(blamed[i], blamed[j]) })
	scores := map[Node]float64{}
	for _, n := range blamed {
		b := float64(direct[n])
		if b <= 0 {
			continue
		}
		for _, sh := range pr.dist(n) {
			scores[sh.origin] += b * sh.weight
		}
	}

	// Rank the origins.
	type scored struct {
		n Node
		v float64
	}
	list := make([]scored, 0, len(scores))
	for n, v := range scores {
		if v >= minScore {
			list = append(list, scored{n, v})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v > list[j].v
		}
		return nodeLess(list[i].n, list[j].n)
	})

	perRank := map[trace.Rank]*RankAttribution{}
	for _, s := range list {
		caused := trace.Duration(s.v + 0.5)
		ra := perRank[s.n.Rank]
		if ra == nil {
			ra = &RankAttribution{Rank: s.n.Rank, WorstSegment: s.n.Segment}
			perRank[s.n.Rank] = ra
		}
		ra.CausedWait += caused
		ra.Segments++
		if len(an.Candidates) < maxCand {
			an.Candidates = append(an.Candidates, candidate(g, s.n, caused, direct[s.n]))
		}
	}
	an.Ranks = make([]RankAttribution, 0, len(perRank))
	for _, ra := range perRank {
		an.Ranks = append(an.Ranks, *ra)
	}
	sort.Slice(an.Ranks, func(i, j int) bool {
		if an.Ranks[i].CausedWait != an.Ranks[j].CausedWait {
			return an.Ranks[i].CausedWait > an.Ranks[j].CausedWait
		}
		return an.Ranks[i].Rank < an.Ranks[j].Rank
	})

	an.Cycles = DetectCycles(g.Ranks, g.Unmatched)
	return an
}

// excessSOS computes each segment's SOS-time excess over its iteration
// column's median — the node's own contribution to lateness. A rank
// that merely waits resumes with normal SOS and zero excess; a straggler
// shows the full surplus.
func referenceExcessSOS(m *segment.Matrix) map[Node]trace.Duration {
	out := map[Node]trace.Duration{}
	columns := 0
	for _, segs := range m.PerRank {
		if len(segs) > columns {
			columns = len(segs)
		}
	}
	for col := 0; col < columns; col++ {
		var sos []trace.Duration
		for _, segs := range m.PerRank {
			if col < len(segs) {
				sos = append(sos, segs[col].SOS())
			}
		}
		sorted := append([]trace.Duration(nil), sos...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := sorted[len(sorted)/2]
		for rank, segs := range m.PerRank {
			if col >= len(segs) {
				continue
			}
			ex := segs[col].SOS() - med
			if ex < 0 {
				ex = 0
			}
			out[Node{Rank: trace.Rank(rank), Segment: col}] = ex
		}
	}
	return out
}

// refPropagator memoizes per-node origin distributions. A node's blame
// splits into an own share — proportional to its excess SOS-time — and
// an inherited share distributed over the causers of its incoming
// late-sender waits, recursively. A pure relay (zero excess, all waits
// inherited) forwards everything upstream; a true straggler (no
// incoming waits) keeps everything.
type refPropagator struct {
	inEdges map[Node][]Edge
	excess  map[Node]trace.Duration
	memo    map[Node][]share
	onPath  map[Node]bool
	// self is scratch for the current node's own-share singleton during
	// the merge in dist; it is only live between the recursive calls and
	// the merge, so a single slot suffices.
	self [1]share
}

func (p *refPropagator) dist(n Node) []share {
	if d, ok := p.memo[n]; ok {
		return d
	}
	if p.onPath[n] {
		// Dependency cycle (mutual late sends): cut it by keeping the
		// blame at the revisited node.
		return []share{{n, 1}}
	}
	var waitIn trace.Duration
	for _, e := range p.inEdges[n] {
		waitIn += e.Wait
	}
	if waitIn <= 0 {
		d := []share{{n, 1}}
		p.memo[n] = d
		return d
	}
	p.onPath[n] = true
	own := p.excess[n]
	f := float64(waitIn) / float64(waitIn+own)
	// Weighted child distributions plus the own share as a k-way merge of
	// origin-sorted lists: per origin the weighted contributions add in
	// part order (own share first, then inEdges order) — the same float
	// accumulation order the map-based aggregation used, without a
	// temporary map per node.
	type wdist struct {
		w    float64
		d    []share
		next int
	}
	parts := make([]wdist, 0, len(p.inEdges[n])+1)
	if f < 1 {
		parts = append(parts, wdist{w: 1 - f, d: p.self[:]})
	}
	for _, e := range p.inEdges[n] {
		w := f * float64(e.Wait) / float64(waitIn)
		parts = append(parts, wdist{w: w, d: p.dist(e.Causer)})
	}
	if len(parts) > 0 && f < 1 {
		// p.self is shared scratch: fill it only after the recursive
		// dist calls above are done with it.
		p.self[0] = share{n, 1}
	}
	delete(p.onPath, n)
	// First merge pass counts the distinct origins so the memoized slice
	// is allocated at its exact final size; the second accumulates.
	distinct := 0
	for pass := 0; pass < 2; pass++ {
		var d []share
		if pass == 1 {
			d = make([]share, 0, distinct)
		}
		for {
			var min Node
			found := false
			for i := range parts {
				if parts[i].next >= len(parts[i].d) {
					continue
				}
				o := parts[i].d[parts[i].next].origin
				if !found || nodeLess(o, min) {
					min, found = o, true
				}
			}
			if !found {
				break
			}
			var w float64
			for i := range parts {
				if parts[i].next < len(parts[i].d) && parts[i].d[parts[i].next].origin == min {
					if pass == 1 {
						w += parts[i].w * parts[i].d[parts[i].next].weight
					}
					parts[i].next++
				}
			}
			if pass == 0 {
				distinct++
			} else {
				d = append(d, share{min, w})
			}
		}
		if pass == 1 {
			p.memo[n] = d
			return d
		}
		for i := range parts {
			parts[i].next = 0
		}
	}
	panic("unreachable")
}
