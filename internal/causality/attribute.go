package causality

import (
	"context"
	"slices"
	"sort"

	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// Options configure Analyze.
type Options struct {
	// MaxCandidates caps the candidate triples (0 = 32). The per-rank
	// totals are always computed over every node.
	MaxCandidates int
}

// Candidate is one root-cause candidate: a (rank, segment, function)
// triple ranked by the peer wait time that originates there.
type Candidate struct {
	Rank    trace.Rank `json:"rank"`
	Segment int        `json:"segment"`
	// Function is the top exclusive non-synchronization region inside
	// the segment — where the causing time was actually spent. Analyze
	// leaves it empty; ResolveFunctions fills it from the event streams.
	Function string `json:"function"`
	// CausedWait is the propagated peer wait originating in this
	// segment: direct blame plus every indirect wait folded back onto it
	// along the dependency chains.
	CausedWait trace.Duration `json:"caused_wait"`
	// DirectWait is the blame before wait-chain folding.
	DirectWait trace.Duration `json:"direct_wait"`
	// SOS is the segment's synchronization-oblivious time.
	SOS trace.Duration `json:"sos"`
}

// RankAttribution aggregates a rank's propagated blame over all its
// segments.
type RankAttribution struct {
	Rank       trace.Rank     `json:"rank"`
	CausedWait trace.Duration `json:"caused_wait"`
	// Segments counts the rank's segments with non-negligible blame.
	Segments int `json:"segments"`
	// WorstSegment is the segment index with the highest blame.
	WorstSegment int `json:"worst_segment"`
}

// Analysis is the outcome of the wait-state classification and
// root-cause attribution over one dependency graph.
type Analysis struct {
	Graph *Graph `json:"-"`

	// LateSenderWait is the total idle time imposed by late senders, and
	// LateSenderCount the number of messages classified late-sender.
	LateSenderWait  trace.Duration `json:"late_sender_wait"`
	LateSenderCount int            `json:"late_sender_count"`
	// LateReceiverSlack is the total buffered head start of
	// late-receiver messages.
	LateReceiverSlack trace.Duration `json:"late_receiver_slack"`
	LateReceiverCount int            `json:"late_receiver_count"`
	// CollectiveWait is the total idle time suffered at collectives, and
	// CollectiveCount the matched collective occurrences.
	CollectiveWait  trace.Duration `json:"collective_wait"`
	CollectiveCount int            `json:"collective_count"`

	// Candidates are the root-cause triples, worst first.
	Candidates []Candidate `json:"candidates"`
	// Ranks are the per-rank blame totals, worst first.
	Ranks []RankAttribution `json:"ranks"`
	// Cycles are the deadlock candidates found in the unmatched-operation
	// wait-for graph.
	Cycles []Cycle `json:"cycles,omitempty"`
}

// minScore is the propagated-wait floor (in ns) below which a node is
// considered blameless — sub-nanosecond fractions are float dust.
const minScore = 1

// Analyze classifies the graph's wait states, propagates blame to its
// origins, and ranks root-cause candidates. The pass is serial and
// processes nodes in deterministic order, so repeated runs (at any
// worker count during Build) produce identical results.
func Analyze(g *Graph, opts Options) *Analysis {
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = 32
	}
	an := &Analysis{Graph: g}

	// Direct blame, origin scores and the propagator's state are dense
	// per-node slices (see nodeIndex).
	ix := newNodeIndex(g)
	direct := make([]trace.Duration, ix.size())
	for _, e := range g.Edges {
		switch e.Kind {
		case LateSender:
			an.LateSenderWait += e.Wait
			an.LateSenderCount += e.Count
			direct[ix.slot(e.Causer)] += e.Wait
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
				direct[ix.slot(a.Node)] += a.Blame
			}
		}
	}

	// Wait-chain propagation: fold each node's direct blame back onto
	// its originating nodes. Slots run in nodeLess order, so the blamed
	// nodes are visited, and every origin's score summed, in the same
	// order as a sorted node list would give.
	pr := newPropagator(g, ix)
	scores := make([]float64, ix.size())
	for i, d := range direct {
		if d <= 0 {
			continue
		}
		b := float64(d)
		for _, sh := range pr.dist(ix.node(i)) {
			scores[ix.slot(sh.origin)] += b * sh.weight
		}
	}

	// Rank the origins.
	type scored struct {
		n Node
		v float64
	}
	var list []scored
	for i, v := range scores {
		if v >= minScore {
			list = append(list, scored{ix.node(i), v})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v > list[j].v
		}
		return nodeLess(list[i].n, list[j].n)
	})

	perRank := make([]RankAttribution, ix.rows) // Segments == 0: no blame
	nranks := 0
	for _, s := range list {
		caused := trace.Duration(s.v + 0.5)
		ra := &perRank[s.n.Rank]
		if ra.Segments == 0 {
			*ra = RankAttribution{Rank: s.n.Rank, WorstSegment: s.n.Segment}
			nranks++
		}
		ra.CausedWait += caused
		ra.Segments++
		if len(an.Candidates) < maxCand {
			an.Candidates = append(an.Candidates, candidate(g, s.n, caused, direct[ix.slot(s.n)]))
		}
	}
	an.Ranks = make([]RankAttribution, 0, nranks)
	for _, ra := range perRank {
		if ra.Segments > 0 {
			an.Ranks = append(an.Ranks, ra)
		}
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

// candidate turns one origin node into a (rank, segment) candidate; its
// function is left to ResolveFunctions. Node segments come from
// segIndex, which yields -1 for every time outside the matrix.
func candidate(g *Graph, n Node, caused, direct trace.Duration) Candidate {
	c := Candidate{Rank: n.Rank, Segment: n.Segment, CausedWait: caused, DirectWait: direct}
	if n.Segment >= 0 {
		c.SOS = g.Matrix.PerRank[n.Rank][n.Segment].SOS()
	}
	return c
}

// ResolveFunctions names the function of each of an's candidates from a
// breakdown of its segment. regions is the archive's region table and
// streamRank replays one rank's events (the SourceStreams.StreamRank
// shape). Each candidate rank is streamed once, in rank order on the
// shared worker pool, and only until its last candidate segment ends.
func ResolveFunctions(ctx context.Context, an *Analysis, regions []trace.Region, streamRank func(rank int, fn func(trace.Event) error) error) error {
	byRank := map[trace.Rank][]int{} // candidate indices with a segment
	var ranks []trace.Rank
	for i, c := range an.Candidates {
		if c.Segment < 0 {
			continue
		}
		if byRank[c.Rank] == nil {
			ranks = append(ranks, c.Rank)
		}
		byRank[c.Rank] = append(byRank[c.Rank], i)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	return parallel.ForEachCtx(ctx, len(ranks), func(ri int) error {
		idx := byRank[ranks[ri]]
		segs := make([]segment.Segment, len(idx))
		for k, i := range idx {
			c := an.Candidates[i]
			segs[k] = an.Graph.Matrix.PerRank[c.Rank][c.Segment]
		}
		entries, err := segment.Breakdown(regions, segs, streamRank)
		if err != nil {
			return err
		}
		for k, i := range idx {
			an.Candidates[i].Function = topFunction(regions, entries[k])
		}
		return nil
	})
}

// topFunction picks the top exclusive non-sync region of a breakdown —
// the causing time is compute, not synchronization — falling back to
// the overall top ("" for an empty breakdown).
func topFunction(regions []trace.Region, entries []segment.BreakdownEntry) string {
	for _, e := range entries {
		if !segment.DefaultSync.IsSync(regions[e.Region]) {
			return e.Name
		}
	}
	if len(entries) == 0 {
		return ""
	}
	return entries[0].Name
}

// nodeIndex maps the nodes of one graph to dense slots: Node{r, s} sits
// at r·stride+s+1, one slot per matrix segment plus one per rank for
// segment -1 (times outside the matrix). Slot order is nodeLess order.
type nodeIndex struct{ rows, stride int }

// newNodeIndex sizes the slots to the matrix and to every node of g's
// edges and collective arrivals.
func newNodeIndex(g *Graph) nodeIndex {
	rows, columns := max(g.Ranks, len(g.Matrix.PerRank)), 0
	for _, segs := range g.Matrix.PerRank {
		columns = max(columns, len(segs))
	}
	grow := func(n Node) {
		rows, columns = max(rows, int(n.Rank)+1), max(columns, n.Segment+1)
	}
	for _, e := range g.Edges {
		grow(e.Causer)
		grow(e.Waiter)
	}
	for _, c := range g.Collectives {
		for _, a := range c.Arrivals {
			grow(a.Node)
		}
	}
	return nodeIndex{rows: rows, stride: columns + 1}
}

func (ix nodeIndex) size() int       { return ix.rows * ix.stride }
func (ix nodeIndex) slot(n Node) int { return int(n.Rank)*ix.stride + n.Segment + 1 }
func (ix nodeIndex) node(i int) Node {
	return Node{Rank: trace.Rank(i / ix.stride), Segment: i%ix.stride - 1}
}

// excessSOS computes each segment's SOS-time excess over its iteration
// column's median, per slot of ix — the node's own contribution to
// lateness. A rank that merely waits resumes with normal SOS and zero
// excess; a straggler shows the full surplus.
func excessSOS(m *segment.Matrix, ix nodeIndex) []trace.Duration {
	out := make([]trace.Duration, ix.size())
	sorted := make([]trace.Duration, 0, len(m.PerRank))
	for col := 0; col < ix.stride-1; col++ {
		sorted = sorted[:0]
		for _, segs := range m.PerRank {
			if col < len(segs) {
				sorted = append(sorted, segs[col].SOS())
			}
		}
		if len(sorted) == 0 {
			continue
		}
		slices.Sort(sorted)
		med := sorted[len(sorted)/2]
		for rank, segs := range m.PerRank {
			if col < len(segs) {
				out[ix.slot(Node{Rank: trace.Rank(rank), Segment: col})] = max(segs[col].SOS()-med, 0)
			}
		}
	}
	return out
}

// share is one origin's fraction of a node's blame.
type share struct {
	origin Node
	weight float64
}

// propagator memoizes per-node origin distributions. A node's blame
// splits into an own share — proportional to its excess SOS-time — and
// an inherited share distributed over the causers of its incoming
// late-sender waits, recursively. A pure relay (zero excess, all waits
// inherited) forwards everything upstream; a true straggler (no
// incoming waits) keeps everything.
//
// Every per-node field is indexed by ix slot; the incoming waits of the
// node in slot s are in[inOff[s]:inOff[s+1]], in g.Edges order.
type propagator struct {
	ix     nodeIndex
	inOff  []int32
	in     []inEdge
	excess []trace.Duration
	memo   [][]share // nil until computed
	onPath []bool
	// self is scratch for the current node's own-share singleton during
	// the merge in dist; it is only live between the recursive calls and
	// the merge, so a single slot suffices.
	self [1]share
}

// inEdge is one incoming late-sender wait of a node.
type inEdge struct {
	causer Node
	wait   trace.Duration
}

func newPropagator(g *Graph, ix nodeIndex) *propagator {
	p := &propagator{
		ix:     ix,
		inOff:  make([]int32, ix.size()+1),
		excess: excessSOS(g.Matrix, ix),
		memo:   make([][]share, ix.size()),
		onPath: make([]bool, ix.size()),
	}
	for _, e := range g.Edges {
		if e.Kind == LateSender {
			p.inOff[ix.slot(e.Waiter)+1]++
		}
	}
	for s := 0; s < ix.size(); s++ {
		p.inOff[s+1] += p.inOff[s]
	}
	p.in = make([]inEdge, p.inOff[ix.size()])
	next := append([]int32(nil), p.inOff[:ix.size()]...)
	for _, e := range g.Edges {
		if e.Kind == LateSender {
			s := ix.slot(e.Waiter)
			p.in[next[s]] = inEdge{e.Causer, e.Wait}
			next[s]++
		}
	}
	return p
}

func (p *propagator) dist(n Node) []share {
	s := p.ix.slot(n)
	if d := p.memo[s]; d != nil {
		return d
	}
	if p.onPath[s] {
		// Dependency cycle (mutual late sends): cut it by keeping the
		// blame at the revisited node.
		return []share{{n, 1}}
	}
	in := p.in[p.inOff[s]:p.inOff[s+1]]
	var waitIn trace.Duration
	for _, e := range in {
		waitIn += e.wait
	}
	if waitIn <= 0 {
		d := []share{{n, 1}}
		p.memo[s] = d
		return d
	}
	p.onPath[s] = true
	own := p.excess[s]
	f := float64(waitIn) / float64(waitIn+own)
	// Weighted child distributions plus the own share as a k-way merge of
	// origin-sorted lists: per origin the weighted contributions add in
	// part order (own share first, then incoming-wait order) — the same
	// float accumulation order the map-based aggregation used, without a
	// temporary map per node.
	type wdist struct {
		w    float64
		d    []share
		next int
	}
	parts := make([]wdist, 0, len(in)+1)
	if f < 1 {
		parts = append(parts, wdist{w: 1 - f, d: p.self[:]})
	}
	for _, e := range in {
		w := f * float64(e.wait) / float64(waitIn)
		parts = append(parts, wdist{w: w, d: p.dist(e.causer)})
	}
	if len(parts) > 0 && f < 1 {
		// p.self is shared scratch: fill it only after the recursive
		// dist calls above are done with it.
		p.self[0] = share{n, 1}
	}
	p.onPath[s] = false
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
			p.memo[s] = d
			return d
		}
		for i := range parts {
			parts[i].next = 0
		}
	}
	panic("unreachable")
}
