// Package causality turns a trace's communication structure into a
// cross-rank message-dependency graph and explains who makes whom wait.
//
// The paper's SOS-time un-hides the causing process of an imbalance, but
// the final inference — "rank 54 is the straggler, everyone else merely
// waits on it" — is left to the human reading the heatmap. This package
// makes that inference a static pass over the trace:
//
//  1. BuildContext builds a dependency graph from matched send/recv
//     pairs and collective invocations: per-segment edges (rank,
//     segment) → (rank, segment) weighted by the wait time the causer
//     imposes on the waiter.
//  2. Each matched receive is classified as a wait state: late-sender
//     (the send was posted after the receiver started waiting — the
//     receiver's idle time is the sender's fault) or late-receiver (the
//     message sat buffered before the receiver asked for it — no idle
//     imposed, only slack). Collective invocations are decomposed by
//     arrival order: each late arriver is blamed for the extra idle its
//     lateness imposes on everyone already inside the collective.
//  3. Analyze propagates direct blame along the graph onto originating
//     ranks (wait-chain folding: a rank that only forwards lateness it
//     suffered itself is transparent) and ranks candidate straggler
//     (rank, segment, function) triples combining propagated wait with
//     SOS-time.
//  4. DetectCycles runs a strongly-connected-components pass over the
//     rank-level wait-for graph of unmatched operations, flagging
//     structurally unmatchable communication (deadlock candidates).
//
// Wait times are measured against the enclosing synchronization region:
// a receive completing at time t inside an MPI region entered at time w
// idled the receiver for t−w. Receives recorded outside any
// synchronization region carry no measurable idle time and are skipped.
package causality

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"perfvar/internal/callstack"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// Node is one segment of one rank — the granularity of the dependency
// graph. Segment is -1 for events outside every segment of the rank
// (before the first or after the last dominant-function invocation).
type Node struct {
	Rank    trace.Rank `json:"rank"`
	Segment int        `json:"segment"`
}

func nodeLess(a, b Node) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Segment < b.Segment
}

// WaitKind classifies one dependency edge.
type WaitKind uint8

const (
	// LateSender: the send was posted after the receiver had already
	// started waiting — the receiver's idle time is charged to the
	// sender.
	LateSender WaitKind = iota
	// LateReceiver: the message was available before the receiver asked
	// for it; the slack is the head start the message had. No idle time
	// is charged to anyone.
	LateReceiver
)

// String returns the kebab-case kind name.
func (k WaitKind) String() string {
	switch k {
	case LateSender:
		return "late-sender"
	case LateReceiver:
		return "late-receiver"
	}
	return "unknown"
}

// RankDep is a rank-level wait-for edge derived from an unmatched
// operation: From cannot complete until To acts (an unmatched receive
// waits for the peer's send; an unmatched send waits for the peer's
// receive under rendezvous semantics).
type RankDep struct {
	From, To trace.Rank
	// Send reports whether the unmatched operation was a send.
	Send bool
}

// Edge aggregates the classified waits between one causer segment and
// one waiter segment.
type Edge struct {
	Causer Node     `json:"causer"`
	Waiter Node     `json:"waiter"`
	Kind   WaitKind `json:"kind"`
	// Wait is the total idle time the waiter spent on the edge's
	// messages (receive completion minus wait start, summed).
	Wait trace.Duration `json:"wait"`
	// Slack is the total buffered head start of late-receiver messages.
	Slack trace.Duration `json:"slack,omitempty"`
	// Count is the number of messages folded into the edge.
	Count int `json:"count"`
}

// Arrival is one rank's arrival at a collective occurrence.
type Arrival struct {
	Node Node
	// Time is when the rank entered the collective region.
	Time trace.Time
	// Wait is the idle time until the release (the last arrival).
	Wait trace.Duration
	// Blame is the extra idle this arrival's lateness imposed on every
	// earlier arriver: (own arrival − previous arrival) × number of
	// ranks already waiting.
	Blame trace.Duration
}

// Collective is one matched occurrence of a barrier/collective region
// across ranks (occurrence k on every rank is assumed to be the same
// operation — the SPMD convention). Arrivals are sorted by arrival time;
// the blame decomposition along the sorted order keeps the edge count
// linear in the rank count instead of quadratic.
type Collective struct {
	Region     trace.RegionID
	Occurrence int
	// Release is the last arrival time — when every rank may proceed.
	Release  trace.Time
	Arrivals []Arrival
}

// Graph is the cross-rank message-dependency graph of one trace.
type Graph struct {
	Matrix *segment.Matrix
	// Ranks is the number of ranks the graph spans.
	Ranks int
	// Edges holds the aggregated point-to-point dependencies, grouped by
	// the waiter's segment column and sorted within each column.
	Edges []Edge
	// Collectives holds the matched collective occurrences with their
	// arrival decompositions.
	Collectives []Collective
	// Unmatched holds the rank-level wait-for edges of operations that
	// found no partner (input to DetectCycles).
	Unmatched []RankDep
}

// Input bundles BuildContext's inputs. Matrix must be non-nil; it defines the
// segment coordinates of the graph nodes.
type Input struct {
	Matrix *segment.Matrix
	// Pairs are the matched messages, as clockfix.Match pairs them; a
	// receive's Event indexes its rank's event stream, where Build looks
	// up the receive's enclosing wait region.
	Pairs     []clockfix.MsgPair
	Unmatched []RankDep
	// Scans holds one finished RankScanner per rank: the callers consume
	// the event streams themselves and hand over the per-rank summaries.
	Scans []*RankScanner
}

// BuildContext constructs the dependency graph. The per-segment-column
// edge aggregation fans out through the shared worker pool and stops
// between items once ctx is cancelled, discarding the half-built graph;
// results are merged in index order, so serial and parallel runs are
// byte-identical.
func BuildContext(ctx context.Context, in Input) (*Graph, error) {
	g := &Graph{
		Matrix:      in.Matrix,
		Ranks:       len(in.Scans),
		Unmatched:   append([]RankDep(nil), in.Unmatched...),
		Collectives: groupCollectives(in.Matrix, in.Scans),
	}
	var err error
	g.Edges, err = buildEdgesCtx(ctx, in)
	if err != nil {
		return nil, err
	}
	return g, nil
}

type collOcc struct {
	region       trace.RegionID
	occ          int
	enter, leave trace.Time
}

// RankScanner is the per-rank causality pre-pass as an event-at-a-time
// visitor: feed one rank's events in stream order and it records the
// effective wait start of every receive inside a synchronization region
// plus the rank's collective invocations — the compact summary Build
// needs from each rank. It tolerates malformed streams (unbalanced
// leaves, unsorted times): depth counters clamp at zero and unclosed
// collectives are dropped, never panicking — the structural analyzers
// report the underlying violations.
type RankScanner struct {
	regions []trace.Region
	// recvWaits records (event index, effective wait start) per in-sync
	// receive. Event indices only grow, so the slice stays sorted and
	// waitOf resolves by binary search — far cheaper than a map at
	// message-heavy scales.
	recvWaits []recvWaitRec
	colls     []collOcc

	i         int                         // index of the next event fed
	sync      *callstack.IntervalRecorder // maximal intervals inside synchronization regions
	lastRecv  trace.Time                  // completion of the previous recv in the open sync scope
	haveRecv  bool
	openColls []int // indices into colls
	occCount  map[trace.RegionID]int
}

type recvWaitRec struct {
	event int32
	wait  trace.Time
}

// waitOf returns the effective wait start recorded for the receive at
// event index i, if any.
func (s *RankScanner) waitOf(i int) (trace.Time, bool) {
	lo := sort.Search(len(s.recvWaits), func(j int) bool { return s.recvWaits[j].event >= int32(i) })
	if lo < len(s.recvWaits) && s.recvWaits[lo].event == int32(i) {
		return s.recvWaits[lo].wait, true
	}
	return 0, false
}

// NewRankScanner returns a scanner validating against the given region
// definitions (the archive header's regions).
func NewRankScanner(regions []trace.Region) *RankScanner {
	return &RankScanner{
		regions:  regions,
		sync:     callstack.NewIntervalRecorder(segment.SyncMask(regions, nil)),
		occCount: map[trace.RegionID]int{},
	}
}

// Feed scans the next event of the rank's stream. It never fails;
// malformed streams degrade to fewer recorded waits.
func (s *RankScanner) Feed(ev trace.Event) {
	i := s.i
	s.i++
	if _, _, closed := s.sync.Feed(ev.Kind, ev.Region, ev.Time); closed {
		s.haveRecv = false // the next sync scope starts without a receive
	}
	switch ev.Kind {
	case trace.KindEnter:
		if ev.Region < 0 || int(ev.Region) >= len(s.regions) {
			return
		}
		r := s.regions[ev.Region]
		if r.Role == trace.RoleBarrier || r.Role == trace.RoleCollective {
			s.colls = append(s.colls, collOcc{
				region: ev.Region, occ: s.occCount[ev.Region],
				enter: ev.Time, leave: ev.Time - 1, // marked unclosed
			})
			s.occCount[ev.Region]++
			s.openColls = append(s.openColls, len(s.colls)-1)
		}
	case trace.KindLeave:
		if ev.Region < 0 || int(ev.Region) >= len(s.regions) {
			return
		}
		r := s.regions[ev.Region]
		if r.Role == trace.RoleBarrier || r.Role == trace.RoleCollective {
			// Close the innermost open occurrence of this region.
			for j := len(s.openColls) - 1; j >= 0; j-- {
				c := &s.colls[s.openColls[j]]
				if c.region == ev.Region && c.leave < c.enter {
					c.leave = ev.Time
					s.openColls = append(s.openColls[:j], s.openColls[j+1:]...)
					break
				}
			}
		}
	case trace.KindRecv:
		eff, open := s.sync.Open()
		if !open {
			return // not inside a synchronization region: no measurable wait
		}
		if s.haveRecv && s.lastRecv > eff {
			eff = s.lastRecv // a Waitall's second wait starts when the first message landed
		}
		s.recvWaits = append(s.recvWaits, recvWaitRec{event: int32(i), wait: eff})
		s.lastRecv, s.haveRecv = ev.Time, true
	}
}

// segIndex locates the segment of rank containing time t, or -1.
func segIndex(m *segment.Matrix, rank trace.Rank, t trace.Time) int {
	if int(rank) < 0 || int(rank) >= len(m.PerRank) {
		return -1
	}
	segs := m.PerRank[rank]
	// Last segment with Start <= t.
	lo := sort.Search(len(segs), func(i int) bool { return segs[i].Start > t }) - 1
	if lo >= 0 && t <= segs[lo].End {
		return lo
	}
	return -1
}

// groupCollectives matches collective invocations across ranks by
// (region, occurrence index) and decomposes each occurrence's wait by
// arrival order.
func groupCollectives(m *segment.Matrix, scans []*RankScanner) []Collective {
	type key struct {
		region trace.RegionID
		occ    int
	}
	groups := map[key][]Arrival{}
	for rank := range scans {
		for _, c := range scans[rank].colls {
			if c.leave < c.enter {
				continue // unclosed at stream end
			}
			k := key{c.region, c.occ}
			groups[k] = append(groups[k], Arrival{
				Node: Node{Rank: trace.Rank(rank), Segment: segIndex(m, trace.Rank(rank), c.enter)},
				Time: c.enter,
			})
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].region != keys[j].region {
			return keys[i].region < keys[j].region
		}
		return keys[i].occ < keys[j].occ
	})
	var out []Collective
	for _, k := range keys {
		arr := groups[k]
		if len(arr) < 2 {
			continue // a collective of one synchronizes nothing
		}
		sort.Slice(arr, func(i, j int) bool {
			if arr[i].Time != arr[j].Time {
				return arr[i].Time < arr[j].Time
			}
			return arr[i].Node.Rank < arr[j].Node.Rank
		})
		release := arr[len(arr)-1].Time
		for i := range arr {
			arr[i].Wait = release - arr[i].Time
			if i > 0 {
				arr[i].Blame = (arr[i].Time - arr[i-1].Time) * trace.Duration(i)
			}
		}
		out = append(out, Collective{Region: k.region, Occurrence: k.occ, Release: release, Arrivals: arr})
	}
	return out
}

// buildEdges classifies every matched pair and aggregates the results
// into per-segment edges. Pairs are bucketed by the waiter's segment
// column; the columns aggregate independently on the worker pool.
func buildEdgesCtx(ctx context.Context, in Input) ([]Edge, error) {
	columns := 0
	for _, segs := range in.Matrix.PerRank {
		if len(segs) > columns {
			columns = len(segs)
		}
	}
	// Bucket pair indices by the waiter's segment column in CSR layout:
	// one exactly-sized backing array instead of per-column append chains.
	cols := make([]int32, len(in.Pairs))
	counts := make([]int32, columns+1)
	for i, p := range in.Pairs {
		col := segIndex(in.Matrix, p.Recv.Rank, p.Recv.Time)
		cols[i] = int32(col)
		if col >= 0 {
			counts[col+1]++
		}
	}
	for c := 0; c < columns; c++ {
		counts[c+1] += counts[c]
	}
	idx := make([]int32, counts[columns])
	next := make([]int32, columns)
	copy(next, counts[:columns])
	for i, col := range cols {
		if col < 0 {
			continue // receive outside every segment: no node to attach to
		}
		idx[next[col]] = int32(i)
		next[col]++
	}
	// One pass over the columns on the worker pool. A column has at most
	// as many edges as pairs, since each edge aggregates at least one, so
	// each worker writes a column's edges into its own scratch, sized to
	// the largest column, and keeps an exact-size copy; the columns are
	// then joined in order.
	widest := int32(0)
	for c := 0; c < columns; c++ {
		widest = max(widest, counts[c+1]-counts[c])
	}
	perCol := make([][]Edge, columns)
	if _, err := parallel.DoWorkersCtx(ctx, columns, func() []Edge { return make([]Edge, widest) }, func(buf []Edge, col int) {
		pairIdx := idx[counts[col]:counts[col+1]]
		perCol[col] = slices.Clone(buf[:columnEdges(buf, in, pairIdx, col)])
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, es := range perCol {
		total += len(es)
	}
	out := make([]Edge, 0, total)
	for _, es := range perCol {
		out = append(out, es...)
	}
	return out, nil
}

// maxRunKeys bounds the distinct (causer, kind) keys a waiter's run of
// pairs is aggregated over by linear search. A run with more keys — a
// rank that many others make wait in one segment — is aggregated by
// sorting its classified pairs instead, so fan-in stays O(n log n).
const maxRunKeys = 16

// columnEdges aggregates the classified pairs of one waiter segment
// column into edges sorted by (waiter, causer, kind), written to dst,
// which holds at least one edge per pair, and returns how many there
// are. Pairs arrive in (receiver rank, receive event) order, the order
// clockfix.Match produces, so each waiter rank's pairs form one
// contiguous run (pairs in another order are grouped by receiver rank
// first), and each run is aggregated over its own few keys and sorted on
// its own. The sums are integers, so the aggregation order does not show
// in the edges.
func columnEdges(dst []Edge, in Input, pairIdx []int32, col int) int {
	byWaiter := func(a, b int32) int { return cmp.Compare(in.Pairs[a].Recv.Rank, in.Pairs[b].Recv.Rank) }
	if !slices.IsSortedFunc(pairIdx, byWaiter) {
		slices.SortFunc(pairIdx, byWaiter)
	}
	var buf [maxRunKeys]Edge
	n := 0
	for len(pairIdx) > 0 {
		k := 1
		for k < len(pairIdx) && in.Pairs[pairIdx[k]].Recv.Rank == in.Pairs[pairIdx[0]].Recv.Rank {
			k++
		}
		n += copy(dst[n:], runEdges(in, pairIdx[:k], col, &buf))
		pairIdx = pairIdx[k:]
	}
	return n
}

// runEdges aggregates one waiter's run of pairs into edges sorted by
// (causer, kind), in buf while the run has at most maxRunKeys keys.
func runEdges(in Input, run []int32, col int, buf *[maxRunKeys]Edge) []Edge {
	es := buf[:0]
	for _, pi := range run {
		e, ok := classifyPair(in, pi, col)
		if !ok {
			continue
		}
		if cur := findEdge(es, &e); cur != nil {
			cur.Wait += e.Wait
			cur.Slack += e.Slack
			cur.Count++
			continue
		}
		if len(es) == maxRunKeys {
			return sortedRunEdges(in, run, col)
		}
		es = append(es, e)
	}
	slices.SortFunc(es, edgeCmp)
	return es
}

// sortedRunEdges is runEdges for a run with many keys: it classifies the
// whole run, sorts it by key and merges equal keys.
func sortedRunEdges(in Input, run []int32, col int) []Edge {
	es := make([]Edge, 0, len(run))
	for _, pi := range run {
		if e, ok := classifyPair(in, pi, col); ok {
			es = append(es, e)
		}
	}
	slices.SortFunc(es, edgeCmp)
	merged := es[:0]
	for _, e := range es {
		if n := len(merged); n > 0 && edgeCmp(merged[n-1], e) == 0 {
			merged[n-1].Wait += e.Wait
			merged[n-1].Slack += e.Slack
			merged[n-1].Count++
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// findEdge returns the edge of es with e's causer and kind, or nil.
func findEdge(es []Edge, e *Edge) *Edge {
	for i := range es {
		if es[i].Causer == e.Causer && es[i].Kind == e.Kind {
			return &es[i]
		}
	}
	return nil
}

// edgeCmp orders one waiter's edges by (causer, kind).
func edgeCmp(a, b Edge) int {
	if a.Causer != b.Causer {
		if nodeLess(a.Causer, b.Causer) {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Kind, b.Kind)
}

// classifyPair turns one matched pair into a one-message edge of the
// waiter's column col; ok is false for a receive outside any
// synchronization region or on an unscanned rank.
func classifyPair(in Input, pi int32, col int) (e Edge, ok bool) {
	p := &in.Pairs[pi]
	if int(p.Recv.Rank) < 0 || int(p.Recv.Rank) >= len(in.Scans) {
		return Edge{}, false
	}
	eff, ok := in.Scans[p.Recv.Rank].waitOf(p.Recv.Event)
	if !ok {
		return Edge{}, false
	}
	e = Edge{
		Causer: Node{Rank: p.Send.Rank, Segment: segIndex(in.Matrix, p.Send.Rank, p.Send.Time)},
		Waiter: Node{Rank: p.Recv.Rank, Segment: col},
		Wait:   clampDur(p.Recv.Time - eff),
		Count:  1,
	}
	if p.Send.Time > eff {
		e.Kind = LateSender
	} else {
		e.Kind = LateReceiver
		e.Slack = clampDur(eff - p.Send.Time)
	}
	return e, true
}

func clampDur(d trace.Duration) trace.Duration {
	if d < 0 {
		return 0
	}
	return d
}
