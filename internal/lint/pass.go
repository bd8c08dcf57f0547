package lint

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/segment"
	"perfvar/internal/parallel"
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
// clock-skew analysis, sorted by (SendTime, Src, Dst). They are the
// Messages pairs: ops addressing out-of-range peers never pair, exactly
// as in clockfix.MatchOps.
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

// opRecOf returns the op record of ev, the i-th event of its rank, when
// ev is a send or receive.
func opRecOf(i int, ev trace.Event) (opRec, bool) {
	if ev.Kind != trace.KindSend && ev.Kind != trace.KindRecv {
		return opRec{}, false
	}
	return opRec{
		recv: ev.Kind == trace.KindRecv, event: int32(i), time: ev.Time,
		peer: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
	}, true
}

// facts holds the shared summary facts of one run. The streaming driver
// fills the per-rank fields as each rank's stream ends and the barrier
// fields (selection, segments) between the two streaming passes; the
// lazy fields compute on first use. Analyzer Finish hooks run after the
// barrier, so no locking is needed beyond the sync.Once fields.
type facts struct {
	header     *trace.Header
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
	// slices.SortFunc runs the same pdqsort as sort.Slice, so pairs tied
	// on the key keep sort.Slice's order (the diagnostics' cut-offs and
	// clockfix's sweep depend on it), without the indirect swapper.
	slices.SortFunc(pairs, func(a, b clockfix.Pair) int {
		if a.SendTime != b.SendTime {
			return cmp.Compare(a.SendTime, b.SendTime)
		}
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
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
	if f.scans == nil {
		f.depsErr = errFactUnavailable
		return
	}
	f.messagesOnce.Do(f.computeMessages)
	// Analyzer Finish hooks take no context; the build cannot fail
	// without one.
	f.deps, _ = dependencyGraph(context.Background(), f.segments, f.scans, &f.messages)
}

// matchOps pairs sends and receives per (src, dst, tag) channel in FIFO
// order over the compact op summaries, one slice per rank (len(ops) is
// nranks). Ops addressing out-of-range peers are excluded (the msgmatch
// structural checks report them).
//
// A send's channel is (Rank → Peer, Tag), a recv's (Peer → Rank, Tag),
// so each side of a channel lives on a single rank, in event order. The
// matching runs in three rank-parallel phases and never sorts globally:
// each rank indexes its own ops by channel; each receiving rank zips its
// receive runs with the sender's matching send runs; each rank then
// writes its pairs and unmatched ops at prefix-sum offsets. Pairs come
// out in (Recv.Rank, Recv.Event) order and the unmatched lists in
// (Rank, Event) order.
func matchOps(nranks int, ops [][]opRec) Messages {
	valid := func(op *opRec) bool { return op.peer >= 0 && int(op.peer) < nranks }
	// Every rank's index takes two int32s per op, carved from one
	// exact-size allocation.
	base := make([]int, len(ops)+1)
	for rank, rops := range ops {
		base[rank+1] = base[rank] + 2*len(rops)
	}
	buf := make([]int32, base[len(ops)])
	idx := make([]chanIndex, len(ops))
	parallel.Do(len(ops), func(rank int) {
		idx[rank] = newChanIndex(ops[rank], valid, buf[base[rank]:base[rank+1]])
	})

	// Zip: per peer, a receiving rank's receives and the peer's sends to
	// it are both sorted by (tag, position), so one merge pairs the k-th
	// receive of every channel with its k-th send. Each send is claimed
	// only by the rank it addresses, so the cross-rank partner writes
	// never collide.
	npairs := make([]int, len(ops))
	sendsMatched := make([]atomic.Int64, len(ops))
	parallel.Do(len(ops), func(rank int) {
		rops, ix := ops[rank], &idx[rank]
		me := trace.Rank(rank)
		for i := 0; i < len(ix.recvs); {
			src := rops[ix.recvs[i]].peer
			sops, sx := ops[src], &idx[src]
			k, _ := slices.BinarySearchFunc(sx.sends, me, func(s int32, peer trace.Rank) int {
				return cmp.Compare(sops[s].peer, peer)
			})
			m := 0
			for i < len(ix.recvs) && rops[ix.recvs[i]].peer == src {
				r := ix.recvs[i]
				for k < len(sx.sends) && sops[sx.sends[k]].peer == me && sops[sx.sends[k]].tag < rops[r].tag {
					k++
				}
				if k < len(sx.sends) && sops[sx.sends[k]].peer == me && sops[sx.sends[k]].tag == rops[r].tag {
					s := sx.sends[k]
					ix.partner[r], sx.partner[s] = s, r
					k++
					m++
				}
				i++
			}
			npairs[rank] += m
			sendsMatched[src].Add(int64(m))
		}
	})

	// Exact-size outputs at prefix-sum offsets.
	pairOff := make([]int, len(ops)+1)
	sendOff := make([]int, len(ops)+1)
	recvOff := make([]int, len(ops)+1)
	for rank := range ops {
		pairOff[rank+1] = pairOff[rank] + npairs[rank]
		sendOff[rank+1] = sendOff[rank] + len(idx[rank].sends) - int(sendsMatched[rank].Load())
		recvOff[rank+1] = recvOff[rank] + len(idx[rank].recvs) - npairs[rank]
	}
	msgs := Messages{Pairs: make([]MsgPair, pairOff[len(ops)])}
	if n := sendOff[len(ops)]; n > 0 {
		msgs.UnmatchedSends = make([]MsgRef, n)
	}
	if n := recvOff[len(ops)]; n > 0 {
		msgs.UnmatchedRecvs = make([]MsgRef, n)
	}
	parallel.Do(len(ops), func(rank int) {
		rops, partner := ops[rank], idx[rank].partner
		p, s, r := pairOff[rank], sendOff[rank], recvOff[rank]
		for i := range rops {
			op := &rops[i]
			if !valid(op) {
				continue
			}
			switch j := partner[i]; {
			case !op.recv && j < 0:
				msgs.UnmatchedSends[s] = msgRef(trace.Rank(rank), op)
				s++
			case op.recv && j < 0:
				msgs.UnmatchedRecvs[r] = msgRef(trace.Rank(rank), op)
				r++
			case op.recv:
				msgs.Pairs[p] = MsgPair{
					Send: msgRef(op.peer, &ops[op.peer][j]),
					Recv: msgRef(trace.Rank(rank), op),
				}
				p++
			}
		}
	})
	return msgs
}

// chanIndex is one rank's channel index for matchOps: the positions of
// its valid sends and receives in the rank's ops, each sorted by
// (peer, tag, position) so that every channel is one FIFO-ordered run,
// and each op's partner position in the peer's ops (-1 while unmatched).
type chanIndex struct {
	sends, recvs, partner []int32
}

// newChanIndex indexes rops in buf, which holds two int32s per op.
func newChanIndex(rops []opRec, valid func(*opRec) bool, buf []int32) chanIndex {
	partner, pos := buf[:len(rops)], buf[len(rops):]
	ns, nr := 0, 0
	for i := range rops {
		partner[i] = -1
		switch {
		case !valid(&rops[i]):
		case rops[i].recv:
			nr++
			pos[len(pos)-nr] = int32(i)
		default:
			pos[ns] = int32(i)
			ns++
		}
	}
	ix := chanIndex{sends: pos[:ns], recvs: pos[len(pos)-nr:], partner: partner}
	byChannel := func(a, b int32) int {
		oa, ob := &rops[a], &rops[b]
		if oa.peer != ob.peer {
			return cmp.Compare(oa.peer, ob.peer)
		}
		if oa.tag != ob.tag {
			return cmp.Compare(oa.tag, ob.tag)
		}
		return cmp.Compare(a, b)
	}
	slices.SortFunc(ix.sends, byChannel)
	slices.SortFunc(ix.recvs, byChannel)
	return ix
}

func msgRef(rank trace.Rank, op *opRec) MsgRef {
	return MsgRef{
		Rank: rank, Event: int(op.event), Time: op.time,
		Peer: op.peer, Tag: op.tag, Bytes: op.bytes,
	}
}
