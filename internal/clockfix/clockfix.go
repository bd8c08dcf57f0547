// Package clockfix detects and corrects clock skew between the per-rank
// event streams of a trace.
//
// Trace analyses that compare timestamps across ranks — everything
// perfvar does — silently assume a global clock. On real clusters each
// node has its own clock, and unsynchronized clocks manifest as causality
// violations: a message that appears to be received before it was sent.
// The Vampir ecosystem corrects this with controlled-logical-clock
// techniques; this package implements the first-order variant (per-rank
// constant offsets) on top of explicit violation detection:
//
//  1. Match Send/Recv event pairs per (src, dst, tag) channel in FIFO
//     order.
//  2. Report every pair whose receive timestamp precedes its send
//     timestamp plus the minimal network latency.
//  3. Estimate per-rank offsets by relaxation: repeatedly shift each
//     receiving rank forward until no constraint is violated (or the
//     iteration cap is hit, which indicates drift that constant offsets
//     cannot fix).
//  4. Apply the offsets, renormalizing so the earliest event stays at its
//     original position.
package clockfix

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// Violation is one message whose corrected receive time would precede its
// send time plus the minimal latency.
type Violation struct {
	Src, Dst trace.Rank
	Tag      int32
	SendTime trace.Time
	RecvTime trace.Time
	// Deficit is how far the receive is too early:
	// (SendTime + minLatency) − RecvTime, always > 0.
	Deficit trace.Duration
}

// Op is the compact summary recorded per Send/Recv event of a rank's
// stream: enough for message matching, deadlock detection and clock-skew
// analysis without retaining the event streams. It is 32 bytes.
type Op struct {
	Time  trace.Time
	Bytes int64
	Event int32 // index of the event in its rank's stream
	Peer  trace.Rank
	Tag   int32
	Recv  bool // false: send to Peer; true: receive from Peer
}

// OpOf returns the op record of ev, the i-th event of its rank, when ev
// is a send or receive.
func OpOf(i int, ev trace.Event) (Op, bool) {
	if ev.Kind != trace.KindSend && ev.Kind != trace.KindRecv {
		return Op{}, false
	}
	return Op{
		Recv: ev.Kind == trace.KindRecv, Event: int32(i), Time: ev.Time,
		Peer: ev.Peer, Tag: ev.Tag, Bytes: ev.Bytes,
	}, true
}

// Pair is a matched send/recv couple.
type Pair struct {
	Src, Dst trace.Rank
	Tag      int32
	SendTime trace.Time
	RecvTime trace.Time
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

// Match pairs sends and receives per (src, dst, tag) channel in FIFO
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
func Match(nranks int, ops [][]Op) Messages {
	// Every rank's index takes two int32s per op, carved from one
	// exact-size allocation.
	base := make([]int, len(ops)+1)
	for rank, rops := range ops {
		base[rank+1] = base[rank] + 2*len(rops)
	}
	buf := make([]int32, base[len(ops)])
	idx := make([]chanIndex, len(ops))
	// Only a cancelled context fails the fan-out, and this one is never
	// cancelled.
	_, _ = parallel.DoWorkersCtx(context.Background(), len(ops), func() *peerCounts { return new(peerCounts) }, func(pc *peerCounts, rank int) {
		idx[rank] = newChanIndex(ops[rank], nranks, pc, buf[base[rank]:base[rank+1]])
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
			src := rops[ix.recvs[i]].Peer
			sops, sx := ops[src], &idx[src]
			k, _ := slices.BinarySearchFunc(sx.sends, me, func(s int32, peer trace.Rank) int {
				return cmp.Compare(sops[s].Peer, peer)
			})
			m := 0
			for i < len(ix.recvs) && rops[ix.recvs[i]].Peer == src {
				r := ix.recvs[i]
				for k < len(sx.sends) && sops[sx.sends[k]].Peer == me && sops[sx.sends[k]].Tag < rops[r].Tag {
					k++
				}
				if k < len(sx.sends) && sops[sx.sends[k]].Peer == me && sops[sx.sends[k]].Tag == rops[r].Tag {
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
			if !op.peerIn(nranks) {
				continue
			}
			switch j := partner[i]; {
			case !op.Recv && j < 0:
				msgs.UnmatchedSends[s] = msgRef(trace.Rank(rank), op)
				s++
			case op.Recv && j < 0:
				msgs.UnmatchedRecvs[r] = msgRef(trace.Rank(rank), op)
				r++
			case op.Recv:
				msgs.Pairs[p] = MsgPair{
					Send: msgRef(op.Peer, &ops[op.Peer][j]),
					Recv: msgRef(trace.Rank(rank), op),
				}
				p++
			}
		}
	})
	return msgs
}

// peerIn reports whether op addresses a peer in [0, nranks).
func (op *Op) peerIn(nranks int) bool { return op.Peer >= 0 && int(op.Peer) < nranks }

// chanIndex is one rank's channel index for Match: the positions of its
// valid sends and receives in the rank's ops, each in (peer, tag,
// position) order so that every channel is one FIFO-ordered run, and
// each op's partner position in the peer's ops (-1 while unmatched).
type chanIndex struct {
	sends, recvs, partner []int32
}

// peerCounts is the scratch one worker buckets its ranks' ops with: per
// peer, the rank's sends and receives addressing it (then their runs'
// next free slots), and the peers the rank addresses. Only the touched
// entries are ever non-zero, and they are reset before the worker's next
// rank, so a rank costs O(its ops + its distinct peers) however many
// ranks the trace declares; the counters, sized once per worker, cost
// O(workers × nranks).
type peerCounts struct {
	n       [][2]int32 // [peer]{sends, receives}
	touched []trace.Rank
}

// newChanIndex indexes rops in buf, which holds two int32s per op; the
// valid ops are those addressing a peer in [0, nranks). It buckets the
// positions by peer in one stable counting pass over pc, so each peer's
// run is in position order, and sorts a run by tag only when its tags
// are out of order.
func newChanIndex(rops []Op, nranks int, pc *peerCounts, buf []int32) chanIndex {
	partner, pos := buf[:len(rops)], buf[len(rops):]
	if len(rops) == 0 {
		return chanIndex{partner: partner}
	}
	if len(pc.n) < nranks {
		pc.n = make([][2]int32, nranks)
	}
	ns, nr := 0, 0
	for i := range rops {
		partner[i] = -1
		op := &rops[i]
		if !op.peerIn(nranks) {
			continue
		}
		c := &pc.n[op.Peer]
		if c[0] == 0 && c[1] == 0 {
			pc.touched = append(pc.touched, op.Peer)
		}
		if op.Recv {
			c[1]++
			nr++
		} else {
			c[0]++
			ns++
		}
	}
	// Runs in peer order: each count becomes its run's first slot.
	slices.Sort(pc.touched)
	s, r := int32(0), int32(len(pos)-nr)
	for _, peer := range pc.touched {
		c := &pc.n[peer]
		c[0], s = s, s+c[0]
		c[1], r = r, r+c[1]
	}
	for i := range rops {
		op := &rops[i]
		if !op.peerIn(nranks) {
			continue
		}
		slot := &pc.n[op.Peer][0]
		if op.Recv {
			slot = &pc.n[op.Peer][1]
		}
		pos[*slot] = int32(i)
		*slot++
	}
	for _, peer := range pc.touched {
		pc.n[peer] = [2]int32{}
	}
	pc.touched = pc.touched[:0]
	ix := chanIndex{sends: pos[:ns], recvs: pos[len(pos)-nr:], partner: partner}
	sortRunsByTag(rops, ix.sends)
	sortRunsByTag(rops, ix.recvs)
	return ix
}

// sortRunsByTag sorts each same-peer run of idx, already in position
// order, by (tag, position) where its tags are out of order.
func sortRunsByTag(rops []Op, idx []int32) {
	for i := 0; i < len(idx); {
		peer, sorted := rops[idx[i]].Peer, true
		j := i + 1
		for ; j < len(idx) && rops[idx[j]].Peer == peer; j++ {
			sorted = sorted && rops[idx[j-1]].Tag <= rops[idx[j]].Tag
		}
		if !sorted {
			slices.SortFunc(idx[i:j], func(a, b int32) int {
				if c := cmp.Compare(rops[a].Tag, rops[b].Tag); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		i = j
	}
}

func msgRef(rank trace.Rank, op *Op) MsgRef {
	return MsgRef{
		Rank: rank, Event: int(op.Event), Time: op.Time,
		Peer: op.Peer, Tag: op.Tag, Bytes: op.Bytes,
	}
}

// MatchedPairs returns the timestamp pairs of msgs' matched messages, in
// msgs.Pairs order. Ops addressing out-of-range peers sit in channels
// that can never pair, so dropping them before matching changes no pair.
func MatchedPairs(msgs *Messages) []Pair {
	pairs := make([]Pair, len(msgs.Pairs))
	for i, p := range msgs.Pairs {
		pairs[i] = Pair{
			Src: p.Send.Rank, Dst: p.Recv.Rank, Tag: p.Recv.Tag,
			SendTime: p.Send.Time, RecvTime: p.Recv.Time,
		}
	}
	return pairs
}

// ClockPairs returns MatchedPairs sorted by (SendTime, Src, Dst, Tag,
// RecvTime). The order is total — pairs equal on every key are equal —
// so the sorted slice depends only on the set of matched messages.
func ClockPairs(msgs *Messages) []Pair {
	pairs := MatchedPairs(msgs)
	slices.SortFunc(pairs, comparePairs)
	return pairs
}

// comparePairs orders pairs by (SendTime, Src, Dst, Tag, RecvTime).
func comparePairs(a, b Pair) int {
	if c := cmp.Compare(a.SendTime, b.SendTime); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.RecvTime, b.RecvTime)
}

// sweep streams every rank once, in parallel, through stream (the shape
// of Trace.StreamRank) and returns the clock pairs of the messages and
// each rank's first event time (has[rank] is false for an empty rank).
func sweep(ctx context.Context, nranks int, stream func(rank int, fn func(trace.Event) error) error) (pairs []Pair, first []trace.Time, has []bool, err error) {
	ops := make([][]Op, nranks)
	first, has = make([]trace.Time, nranks), make([]bool, nranks)
	err = parallel.ForEachCtx(ctx, nranks, func(rank int) error {
		i := 0
		return stream(rank, func(ev trace.Event) error {
			if i == 0 {
				first[rank], has[rank] = ev.Time, true
			}
			if op, ok := OpOf(i, ev); ok {
				ops[rank] = append(ops[rank], op)
			}
			i++
			return nil
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	msgs := Match(nranks, ops)
	return ClockPairs(&msgs), first, has, nil
}

// StreamPairs returns the clock pairs of the messages of the nranks event
// streams that stream feeds, from one parallel sweep.
func StreamPairs(ctx context.Context, nranks int, stream func(rank int, fn func(trace.Event) error) error) ([]Pair, error) {
	pairs, _, _, err := sweep(ctx, nranks, stream)
	return pairs, err
}

// ViolationsFromPairs returns all causality violations among matched
// pairs, in any order, under the assumption that no message can travel
// faster than minLatency, sorted as ClockPairs sorts pairs. Only the
// violations are sorted, so the pairs need no order.
func ViolationsFromPairs(pairs []Pair, minLatency trace.Duration) []Violation {
	var out []Violation
	for _, p := range pairs {
		if deficit := p.SendTime + minLatency - p.RecvTime; deficit > 0 {
			out = append(out, Violation{
				Src: p.Src, Dst: p.Dst, Tag: p.Tag,
				SendTime: p.SendTime, RecvTime: p.RecvTime,
				Deficit: deficit,
			})
		}
	}
	slices.SortFunc(out, func(a, b Violation) int { return comparePairs(a.pair(), b.pair()) })
	return out
}

// pair returns the matched pair v was found on.
func (v Violation) pair() Pair {
	return Pair{Src: v.Src, Dst: v.Dst, Tag: v.Tag, SendTime: v.SendTime, RecvTime: v.RecvTime}
}

// Violations returns all causality violations of tr under the assumption
// that no message can travel faster than minLatency.
func Violations(tr *trace.Trace, minLatency trace.Duration) []Violation {
	pairs, _ := StreamPairs(context.Background(), tr.NumRanks(), tr.StreamRank) // a trace's streams never fail
	return ViolationsFromPairs(pairs, minLatency)
}

// Info summarizes a correction run.
type Info struct {
	// Offsets is the estimated per-rank offset. The shift applied to a
	// rank differs from its offset by one constant for all ranks, which
	// keeps the earliest event in place.
	Offsets []trace.Duration
	// ViolationsBefore and ViolationsAfter count causality violations.
	ViolationsBefore, ViolationsAfter int
	// Iterations is the number of relaxation sweeps used.
	Iterations int
	// Converged reports whether all constraints were satisfied within the
	// iteration budget. A false value indicates clock drift (rate
	// differences) that constant offsets cannot repair.
	Converged bool
}

// EstimateOffsets computes per-rank constant offsets such that all
// message constraints hold: recv + off[dst] ≥ send + off[src] + lat.
// It relaxes constraints for at most maxIter sweeps.
func EstimateOffsets(tr *trace.Trace, minLatency trace.Duration, maxIter int) ([]trace.Duration, int, bool) {
	pairs, _ := StreamPairs(context.Background(), tr.NumRanks(), tr.StreamRank) // a trace's streams never fail
	return OffsetsFromPairs(tr.NumRanks(), pairs, minLatency, maxIter)
}

// OffsetsFromPairs is EstimateOffsets over already-matched pairs. A
// maxIter ≤ 0 defaults to 10 sweeps per rank.
//
// The relaxation is Bellman–Ford's: without a cycle of messages whose
// deficits sum positive it settles on the least offsets within nranks
// sweeps, in any pair order; with one it runs all maxIter sweeps. So
// under the default maxIter, whether it converges, the offsets when it
// does, and the sweep count when it does not, are the same for every
// order of pairs; only the sweep count of a converged run depends on it.
func OffsetsFromPairs(nranks int, pairs []Pair, minLatency trace.Duration, maxIter int) ([]trace.Duration, int, bool) {
	offsets := make([]trace.Duration, nranks)
	if maxIter <= 0 {
		maxIter = 10 * nranks
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for _, p := range pairs {
			deficit := (p.SendTime + offsets[p.Src] + minLatency) - (p.RecvTime + offsets[p.Dst])
			if deficit > 0 {
				offsets[p.Dst] += deficit
				changed = true
			}
		}
		if !changed {
			return offsets, iter + 1, true
		}
	}
	return offsets, iter, false
}

// CorrectStreams estimates the clock correction of the nranks event
// streams that stream feeds, from one sweep. It returns the shift to add to each rank's timestamps
// (its offset, renormalized so that the earliest event stays in place)
// and the summary. The violations left after correction are counted on
// the matched pairs shifted by the offsets: a constant shift per rank
// keeps every stream's order, so matching the corrected streams would
// pair the same events.
func CorrectStreams(ctx context.Context, nranks int, stream func(rank int, fn func(trace.Event) error) error, minLatency trace.Duration) ([]trace.Duration, Info, error) {
	pairs, first, has, err := sweep(ctx, nranks, stream)
	if err != nil {
		return nil, Info{}, err
	}
	offsets, iters, converged := OffsetsFromPairs(nranks, pairs, minLatency, 0)
	info := Info{
		Offsets: offsets, Iterations: iters, Converged: converged,
		ViolationsBefore: len(ViolationsFromPairs(pairs, minLatency)),
	}
	for _, p := range pairs {
		if p.SendTime+offsets[p.Src]+minLatency > p.RecvTime+offsets[p.Dst] {
			info.ViolationsAfter++
		}
	}
	return renormalize(offsets, first, has), info, nil
}

// renormalize turns per-rank offsets into the shifts that apply them
// while keeping the earliest first event of the input in place (archive
// formats require non-negative times). first[rank] is the time of rank's
// first event; has[rank] is false for a rank without events.
func renormalize(offsets []trace.Duration, first []trace.Time, has []bool) []trace.Duration {
	var origFirst, newFirst trace.Time
	any := false
	for rank, off := range offsets {
		if !has[rank] {
			continue
		}
		if !any || first[rank] < origFirst {
			origFirst = first[rank]
		}
		if !any || first[rank]+off < newFirst {
			newFirst = first[rank] + off
		}
		any = true
	}
	shifts := make([]trace.Duration, len(offsets))
	for rank, off := range offsets {
		shifts[rank] = off - (newFirst - origFirst)
	}
	return shifts
}

// Apply returns a new trace with each rank's timestamps shifted by
// offsets[rank], renormalized so the earliest event time of the result
// equals the earliest event time of the input.
func Apply(tr *trace.Trace, offsets []trace.Duration) (*trace.Trace, error) {
	if len(offsets) != tr.NumRanks() {
		return nil, fmt.Errorf("clockfix: %d offsets for %d ranks", len(offsets), tr.NumRanks())
	}
	first, has := make([]trace.Time, len(offsets)), make([]bool, len(offsets))
	for rank := range tr.Procs {
		if evs := tr.Procs[rank].Events; len(evs) > 0 {
			first[rank], has[rank] = evs[0].Time, true
		}
	}
	shifts := renormalize(offsets, first, has)
	return tr.Transform(func(rank trace.Rank, events []trace.Event) []trace.Event {
		evs := make([]trace.Event, len(events))
		copy(evs, events)
		for i := range evs {
			evs[i].Time += shifts[rank]
		}
		return evs
	}), nil
}

// Correct detects skew and returns the corrected trace plus a summary,
// matching the trace's messages once. The input is not modified.
func Correct(tr *trace.Trace, minLatency trace.Duration) (*trace.Trace, Info, error) {
	_, info, _ := CorrectStreams(context.Background(), tr.NumRanks(), tr.StreamRank, minLatency) // a trace's streams never fail
	fixed, err := Apply(tr, info.Offsets)
	if err != nil {
		return nil, info, err
	}
	return fixed, info, nil
}

// InjectSkew returns a copy of tr with each rank's clock shifted by
// skew[rank] — the inverse scenario generator for tests and demos.
func InjectSkew(tr *trace.Trace, skew []trace.Duration) (*trace.Trace, error) {
	return Apply(tr, skew)
}
