package lint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"perfvar/internal/clockfix"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// randomOps draws one rank-parallel op set for the matching property
// tests: 1–64 ranks (some with no ops), 0–5 tags per channel, channels
// interleaved in event order, self-sends, peers below 0 and at or above
// nranks, and unequal send/receive counts per channel. Times are drawn
// from a small range so clock pairs tie on SendTime, Src and Dst.
func randomOps(rng *rand.Rand) (int, [][]clockfix.Op) {
	nranks := 1 + rng.Intn(64)
	if rng.Intn(4) == 0 {
		nranks = 1 + rng.Intn(4)
	}
	ntags := rng.Intn(6)
	ops := make([][]clockfix.Op, nranks)
	for rank := range ops {
		if rng.Intn(5) == 0 {
			continue // a rank with no ops
		}
		// A few favourite peers per rank make channels long enough for
		// surplus sends and receives to pile up on both sides.
		peers := make([]trace.Rank, 1+rng.Intn(4))
		for i := range peers {
			switch rng.Intn(10) {
			case 0:
				peers[i] = trace.Rank(-1 - rng.Intn(2))
			case 1:
				peers[i] = trace.Rank(nranks + rng.Intn(2))
			case 2:
				peers[i] = trace.Rank(rank)
			default:
				peers[i] = trace.Rank(rng.Intn(nranks))
			}
		}
		n := rng.Intn(40)
		event := 0
		for i := 0; i < n; i++ {
			event += 1 + rng.Intn(3)
			var tag int32
			if ntags > 0 {
				tag = int32(rng.Intn(ntags))
			}
			ops[rank] = append(ops[rank], clockfix.Op{
				Time:  trace.Time(rng.Intn(50)),
				Bytes: int64(rng.Intn(1 << 10)),
				Event: int32(event),
				Peer:  peers[rng.Intn(len(peers))],
				Tag:   tag,
				Recv:  rng.Intn(2) == 0,
			})
		}
	}
	return nranks, ops
}

// TestMatchOpsMatchesReferenceProperty pins the rank-parallel channel
// zip to the sort-based oracle over random op sets, serial and on four
// workers, including nil-versus-empty result slices.
func TestMatchOpsMatchesReferenceProperty(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			defer parallel.SetJobs(parallel.SetJobs(jobs))
			for seed := int64(0); seed < 300; seed++ {
				nranks, ops := randomOps(rand.New(rand.NewSource(seed)))
				got, want := clockfix.Match(nranks, ops), referenceMatchOps(nranks, ops)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d (%d ranks): matchOps differs from the reference\ngot  %+v\nwant %+v",
						seed, nranks, got, want)
				}
			}
		})
	}
}

// TestClockPairsMatchReferenceOrder checks that Pass.ClockPairs keeps the
// order sort.Slice gave the same pairs, ties on (SendTime, Src, Dst)
// included.
func TestClockPairsMatchReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		nranks, ops := randomOps(rand.New(rand.NewSource(seed)))
		p := &Pass{facts: &facts{nranks: nranks, ops: ops}}
		got := p.ClockPairs()

		ref := referenceMatchOps(nranks, ops)
		want := make([]clockfix.Pair, len(ref.Pairs))
		for i, mp := range ref.Pairs {
			want[i] = clockfix.Pair{
				Src: mp.Send.Rank, Dst: mp.Recv.Rank, Tag: mp.Recv.Tag,
				SendTime: mp.Send.Time, RecvTime: mp.Recv.Time,
			}
		}
		sortSlice(want, func(a, b clockfix.Pair) bool {
			if a.SendTime != b.SendTime {
				return a.SendTime < b.SendTime
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			return a.Dst < b.Dst
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clock pairs differ from sort.Slice order\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}

// referenceMatchOps is the sort-based matching clockfix.Match replaced, kept
// as the property tests' oracle. It pairs sends and receives per
// (src, dst, tag) channel in FIFO order over the compact op summaries.
// Ops addressing out-of-range peers are excluded (the msgmatch
// structural checks report them).
func referenceMatchOps(nranks int, ops [][]clockfix.Op) Messages {
	var msgs Messages
	var nsend, nrecv int
	for rank := range ops {
		for _, op := range ops[rank] {
			if op.Peer < 0 || int(op.Peer) >= nranks {
				continue
			}
			if op.Recv {
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
			if op.Peer < 0 || int(op.Peer) >= nranks {
				continue
			}
			h := int64(rank)<<32 | int64(idx)
			if op.Recv {
				recvs = append(recvs, h)
			} else {
				sends = append(sends, h)
			}
		}
	}
	rankOf := func(h int64) trace.Rank { return trace.Rank(h >> 32) }
	opOf := func(h int64) *clockfix.Op { return &ops[h>>32][h&0xffffffff] }
	mkRef := func(h int64) MsgRef {
		op := opOf(h)
		return MsgRef{
			Rank: rankOf(h), Event: int(op.Event), Time: op.Time,
			Peer: op.Peer, Tag: op.Tag, Bytes: op.Bytes,
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
		if oa.Peer != ob.Peer {
			return oa.Peer < ob.Peer
		}
		if oa.Tag != ob.Tag {
			return oa.Tag < ob.Tag
		}
		return a < b
	})
	sortSlice(recvs, func(a, b int64) bool {
		oa, ob := opOf(a), opOf(b)
		if oa.Peer != ob.Peer {
			return oa.Peer < ob.Peer
		}
		ra, rb := rankOf(a), rankOf(b)
		if ra != rb {
			return ra < rb
		}
		if oa.Tag != ob.Tag {
			return oa.Tag < ob.Tag
		}
		return a < b
	})
	// Merge the two channel-sorted lists: equal channels pair FIFO, the
	// surplus side spills to unmatched.
	chanCmp := func(s, r int64) int { // send channel vs recv channel
		so, ro := opOf(s), opOf(r)
		switch {
		case rankOf(s) != ro.Peer:
			if rankOf(s) < ro.Peer {
				return -1
			}
			return 1
		case so.Peer != rankOf(r):
			if so.Peer < rankOf(r) {
				return -1
			}
			return 1
		case so.Tag != ro.Tag:
			if so.Tag < ro.Tag {
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
