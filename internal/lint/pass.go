package lint

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// Pass connects one analyzer run to the summary facts shared by all
// analyzers of the same lint run. The facts — structural issues,
// per-rank op summaries, replay-derived aggregates, and the
// barrier-computed dominant selection and segmentation — are maintained
// by the streaming driver while the event streams flow by, so the same
// Pass backs both the materialized and the streaming runner and
// analyzer logic is written once against facts, never against raw event
// storage. Reporting is goroutine-safe.
type Pass struct {
	// Trace is the materialized trace under analysis, or nil when the
	// run streams events from a Source without materializing. Built-in
	// analyzers never touch it; it exists for external analyzers that
	// opt out of streaming compatibility.
	Trace *trace.Trace

	analyzer Analyzer
	facts    *facts

	mu    sync.Mutex
	diags []Diagnostic
}

// Report records one finding. An empty Analyzer field is filled from
// the reporting analyzer.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.analyzer.Name()
	}
	p.mu.Lock()
	p.diags = append(p.diags, d)
	p.mu.Unlock()
}

// Reportf records one finding from its parts. Pass event -1 when the
// finding is not tied to a single event and rank -1 for trace-global
// findings.
func (p *Pass) Reportf(sev Severity, code string, rank trace.Rank, event int, t trace.Time, format string, args ...any) {
	p.Report(Diagnostic{
		Code: code, Severity: sev, Rank: rank, Event: event, Time: t,
		Message: sprintf(format, args...),
	})
}

// errFactUnavailable reports a fact the driver did not compute for this
// run — either the trace is structurally broken (selection and
// segmentation are skipped) or no requested analyzer needed the fact.
var errFactUnavailable = errors.New("lint: fact not computed in this run")

// Header returns the trace header: name plus region and metric
// definitions. Always available, even for streaming runs.
func (p *Pass) Header() *trace.Header { return p.facts.header }

// NumRanks returns the number of ranks of the linted trace.
func (p *Pass) NumRanks() int { return p.facts.nranks }

// MinLatency returns the assumed minimal network latency used by
// message-causality checks.
func (p *Pass) MinLatency() trace.Duration { return p.facts.minLatency }

// RegionName resolves a region id to its name, with a stable
// placeholder for undefined ids.
func (p *Pass) RegionName(id trace.RegionID) string { return p.facts.regionName(id) }

// Structural returns all structural violations of one rank (the
// trace.StreamChecker facts, accumulated while the rank streamed).
func (p *Pass) Structural(rank trace.Rank) []trace.Issue {
	return p.facts.structural[rank]
}

// StructurallyBroken reports whether any rank has a nesting/ordering
// violation that makes call-tree replays unreliable. Semantic analyzers
// use it to skip work that the nesting analyzer already explains.
func (p *Pass) StructurallyBroken() bool { return p.facts.broken }

// EventCounts returns the per-rank event counts. Callers must not
// modify the slice.
func (p *Pass) EventCounts() []int { return p.facts.counts }

// Messages returns the FIFO-matched send/recv pairs plus the events that
// found no partner.
func (p *Pass) Messages() *Messages {
	p.facts.messagesOnce.Do(p.facts.computeMessages)
	return &p.facts.messages
}

// ClockPairs returns the matched send/recv timestamp pairs used by
// clock-skew analysis (all communication ops, no peer filtering).
func (p *Pass) ClockPairs() []clockfix.Pair {
	p.facts.clockOnce.Do(p.facts.computeClockPairs)
	return p.facts.clockPairs
}

// ZeroDurations returns one rank's zero-duration invocation aggregates,
// sorted by region id, or an error when the rank's stream does not
// replay into proper call stacks.
func (p *Pass) ZeroDurations(rank trace.Rank) ([]ZeroRegion, error) {
	if err := p.facts.replayErr[rank]; err != nil {
		return nil, err
	}
	return p.facts.zeros[rank], nil
}

// SyncDepths returns one rank's distinct (synchronization region, stack
// depth) observations in first-enter order, or an error when the rank's
// stream does not replay into proper call stacks.
func (p *Pass) SyncDepths(rank trace.Rank) ([]SyncDepth, error) {
	if err := p.facts.replayErr[rank]; err != nil {
		return nil, err
	}
	return p.facts.syncs[rank], nil
}

// Dominant returns the dominant-function selection of the trace. The
// error is dominant.ErrNoCandidate when no function clears the 2p
// threshold, or a replay error for broken traces.
func (p *Pass) Dominant() (dominant.Selection, error) {
	if !p.facts.selDone {
		return dominant.Selection{}, errFactUnavailable
	}
	return p.facts.dominantSel, p.facts.dominantErr
}

// Segments returns the segment matrix cut at the dominant function, or
// an error when no dominant function exists.
func (p *Pass) Segments() (*segment.Matrix, error) {
	if !p.facts.segDone {
		return nil, errFactUnavailable
	}
	return p.facts.segments, p.facts.segmentsErr
}

// Dependencies returns the cross-rank message-dependency graph built
// from the message-matching facts and the dominant-function segment
// matrix, or the segmentation error when the trace cannot be segmented.
func (p *Pass) Dependencies() (*causality.Graph, error) {
	p.facts.depsOnce.Do(p.facts.computeDeps)
	return p.facts.deps, p.facts.depsErr
}

// ZeroRegion aggregates one region's zero-duration invocations on one
// rank.
type ZeroRegion struct {
	Region trace.RegionID
	// Count is the number of zero-duration invocations.
	Count int
	// First is the enter time of the earliest (in enter order) such
	// invocation.
	First trace.Time
}

// SyncDepth is one distinct (synchronization region, stack depth)
// observation on one rank.
type SyncDepth struct {
	Region trace.RegionID
	Depth  int16
}

// MsgRef locates one send or recv event.
type MsgRef struct {
	Rank  trace.Rank
	Event int
	Time  trace.Time
	Peer  trace.Rank
	Tag   int32
	Bytes int64
}

// MsgPair is a FIFO-matched send/recv couple.
type MsgPair struct {
	Send, Recv MsgRef
}

// Messages holds the message-matching facts of a trace. Events whose
// peer rank is undefined are excluded (the structural checks report
// them).
type Messages struct {
	Pairs          []MsgPair
	UnmatchedSends []MsgRef
	UnmatchedRecvs []MsgRef
}

// opRec is the compact summary the driver records per Send/Recv event:
// enough for message matching, deadlock detection, and clock-skew
// analysis without retaining the event streams.
type opRec struct {
	time  trace.Time
	bytes int64
	event int32
	peer  trace.Rank
	tag   int32
	recv  bool
}

// facts holds the shared summary facts of one run. The streaming driver
// fills the per-rank fields as each rank's stream ends and the barrier
// fields (selection, segments) between the two streaming passes; the
// lazy fields compute on first use. Analyzer Finish hooks run after the
// barrier, so no locking is needed beyond the sync.Once fields.
type facts struct {
	header     *trace.Header
	tr         *trace.Trace // may be nil (streaming run)
	nranks     int
	minLatency trace.Duration

	structural [][]trace.Issue
	broken     bool

	counts []int
	ops    [][]opRec

	zeros     [][]ZeroRegion
	syncs     [][]SyncDepth
	replayErr []error

	scans []*causality.RankScanner

	selDone     bool
	dominantSel dominant.Selection
	dominantErr error

	segDone     bool
	segments    *segment.Matrix
	segmentsErr error

	messagesOnce sync.Once
	messages     Messages

	clockOnce  sync.Once
	clockPairs []clockfix.Pair

	depsOnce sync.Once
	deps     *causality.Graph
	depsErr  error
}

func (f *facts) regionName(id trace.RegionID) string {
	if id >= 0 && int(id) < len(f.header.Regions) {
		return f.header.Regions[id].Name
	}
	return sprintf("region(%d)", id)
}

func (f *facts) computeMessages() {
	f.messages = matchOps(f.nranks, f.ops)
}

// computeClockPairs derives the clock-check pairs from the message
// facts instead of re-running a second FIFO matching: ops addressing
// out-of-range peers sit in channels that can never pair (a real rank's
// ops never share their channel), so the filtered matching yields the
// exact pair multiset clockfix.MatchOps would. Only the sort order
// (SendTime, Src, Dst) is clockfix's own.
func (f *facts) computeClockPairs() {
	f.messagesOnce.Do(f.computeMessages)
	pairs := make([]clockfix.Pair, len(f.messages.Pairs))
	for i, p := range f.messages.Pairs {
		pairs[i] = clockfix.Pair{
			Src: p.Send.Rank, Dst: p.Recv.Rank, Tag: p.Recv.Tag,
			SendTime: p.Send.Time, RecvTime: p.Recv.Time,
		}
	}
	sortSlice(pairs, func(a, b clockfix.Pair) bool {
		if a.SendTime != b.SendTime {
			return a.SendTime < b.SendTime
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	f.clockPairs = pairs
}

func (f *facts) computeDeps() {
	if !f.segDone {
		f.depsErr = errFactUnavailable
		return
	}
	if f.segmentsErr != nil {
		f.depsErr = f.segmentsErr
		return
	}
	if f.scans == nil && f.tr == nil {
		f.depsErr = errFactUnavailable
		return
	}
	f.messagesOnce.Do(f.computeMessages)
	f.deps = causality.Build(causality.Input{
		Trace:     f.tr,
		Matrix:    f.segments,
		Scans:     f.scans,
		NumRanks:  f.nranks,
		Pairs:     causalityPairs(&f.messages),
		Unmatched: depsFromUnmatched(&f.messages),
	})
}

// matchOps pairs sends and receives per (src, dst, tag) channel in FIFO
// order over the compact op summaries. Ops addressing out-of-range
// peers are excluded (the msgmatch structural checks report them).
func matchOps(nranks int, ops [][]opRec) Messages {
	var msgs Messages
	var nsend, nrecv int
	for rank := range ops {
		for _, op := range ops[rank] {
			if op.peer < 0 || int(op.peer) >= nranks {
				continue
			}
			if op.recv {
				nrecv++
			} else {
				nsend++
			}
		}
	}
	// The ops are sorted as packed (rank, index) handles — 8 bytes each —
	// rather than materialized MsgRef temporaries; the refs are built only
	// for the records that end up in the result.
	sends := make([]int64, 0, nsend)
	recvs := make([]int64, 0, nrecv)
	for rank := range ops {
		for idx, op := range ops[rank] {
			if op.peer < 0 || int(op.peer) >= nranks {
				continue
			}
			h := int64(rank)<<32 | int64(idx)
			if op.recv {
				recvs = append(recvs, h)
			} else {
				sends = append(sends, h)
			}
		}
	}
	rankOf := func(h int64) trace.Rank { return trace.Rank(h >> 32) }
	opOf := func(h int64) *opRec { return &ops[h>>32][h&0xffffffff] }
	mkRef := func(h int64) MsgRef {
		op := opOf(h)
		return MsgRef{
			Rank: rankOf(h), Event: int(op.event), Time: op.time,
			Peer: op.peer, Tag: op.tag, Bytes: op.bytes,
		}
	}
	// A send's channel is (Rank → Peer, Tag), a recv's (Peer → Rank, Tag).
	// All ops of one side of a channel live on a single rank and were
	// collected in event order, so sorting by (channel, Event) is a total
	// order that keeps the FIFO order within each channel. Within one
	// rank the op index follows event order, so the packed handle's low
	// half substitutes for the event number.
	sortSlice(sends, func(a, b int64) bool {
		ra, rb := rankOf(a), rankOf(b)
		if ra != rb {
			return ra < rb
		}
		oa, ob := opOf(a), opOf(b)
		if oa.peer != ob.peer {
			return oa.peer < ob.peer
		}
		if oa.tag != ob.tag {
			return oa.tag < ob.tag
		}
		return a < b
	})
	sortSlice(recvs, func(a, b int64) bool {
		oa, ob := opOf(a), opOf(b)
		if oa.peer != ob.peer {
			return oa.peer < ob.peer
		}
		ra, rb := rankOf(a), rankOf(b)
		if ra != rb {
			return ra < rb
		}
		if oa.tag != ob.tag {
			return oa.tag < ob.tag
		}
		return a < b
	})
	// Merge the two channel-sorted lists: equal channels pair FIFO, the
	// surplus side spills to unmatched.
	chanCmp := func(s, r int64) int { // send channel vs recv channel
		so, ro := opOf(s), opOf(r)
		switch {
		case rankOf(s) != ro.peer:
			if rankOf(s) < ro.peer {
				return -1
			}
			return 1
		case so.peer != rankOf(r):
			if so.peer < rankOf(r) {
				return -1
			}
			return 1
		case so.tag != ro.tag:
			if so.tag < ro.tag {
				return -1
			}
			return 1
		}
		return 0
	}
	n := nsend
	if nrecv < n {
		n = nrecv
	}
	msgs.Pairs = make([]MsgPair, 0, n)
	i, j := 0, 0
	for i < len(sends) && j < len(recvs) {
		switch c := chanCmp(sends[i], recvs[j]); {
		case c < 0:
			msgs.UnmatchedSends = append(msgs.UnmatchedSends, mkRef(sends[i]))
			i++
		case c > 0:
			msgs.UnmatchedRecvs = append(msgs.UnmatchedRecvs, mkRef(recvs[j]))
			j++
		default:
			msgs.Pairs = append(msgs.Pairs, MsgPair{Send: mkRef(sends[i]), Recv: mkRef(recvs[j])})
			i++
			j++
		}
	}
	for ; i < len(sends); i++ {
		msgs.UnmatchedSends = append(msgs.UnmatchedSends, mkRef(sends[i]))
	}
	for ; j < len(recvs); j++ {
		msgs.UnmatchedRecvs = append(msgs.UnmatchedRecvs, mkRef(recvs[j]))
	}
	sortRefs := func(refs []MsgRef) {
		sortSlice(refs, func(a, b MsgRef) bool {
			if a.Rank != b.Rank {
				return a.Rank < b.Rank
			}
			return a.Event < b.Event
		})
	}
	sortRefs(msgs.UnmatchedSends)
	sortRefs(msgs.UnmatchedRecvs)
	sortSlice(msgs.Pairs, func(a, b MsgPair) bool {
		if a.Recv.Rank != b.Recv.Rank {
			return a.Recv.Rank < b.Recv.Rank
		}
		return a.Recv.Event < b.Recv.Event
	})
	return msgs
}

// opsOfTrace collects the per-rank op summaries of a materialized trace
// — the same records the streaming driver accumulates event by event.
func opsOfTrace(tr *trace.Trace) [][]opRec {
	ops := make([][]opRec, tr.NumRanks())
	for rank := range tr.Procs {
		for i, ev := range tr.Procs[rank].Events {
			switch ev.Kind {
			case trace.KindSend, trace.KindRecv:
				ops[rank] = append(ops[rank], opRec{
					recv: ev.Kind == trace.KindRecv, event: int32(i), time: ev.Time,
					peer: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
				})
			}
		}
	}
	return ops
}

// matchMessages pairs Send and Recv events of a materialized trace per
// (src, dst, tag) channel in FIFO order. It is the standalone form of
// the messages fact, shared with DependencyGraph so out-of-run callers
// get identical pairing.
func matchMessages(tr *trace.Trace) Messages {
	return matchOps(tr.NumRanks(), opsOfTrace(tr))
}
