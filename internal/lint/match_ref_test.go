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

// TestClockPairsMatchReferenceOrder checks that clockfix.ClockPairs sorts
// the reference matcher's pairs by the total order (SendTime, Src, Dst,
// Tag, RecvTime), ties on the first three keys included, and that
// Pass.ClockPairs holds the same pairs unsorted, in Match order.
func TestClockPairsMatchReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		nranks, ops := randomOps(rand.New(rand.NewSource(seed)))
		p := &Pass{facts: &facts{nranks: nranks, ops: ops}}
		msgs := clockfix.Match(nranks, ops)
		got := clockfix.ClockPairs(&msgs)

		want := referencePairs(referenceMatchOps(nranks, ops))
		if unsorted := p.ClockPairs(); !reflect.DeepEqual(unsorted, want) {
			t.Fatalf("seed %d: Pass.ClockPairs is not in Match order\ngot  %+v\nwant %+v", seed, unsorted, want)
		}
		sortSlice(want, func(a, b clockfix.Pair) bool {
			if a.SendTime != b.SendTime {
				return a.SendTime < b.SendTime
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			if a.Tag != b.Tag {
				return a.Tag < b.Tag
			}
			return a.RecvTime < b.RecvTime
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clock pairs differ from the total order\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}

// referencePairs returns the clock pairs of msgs in msgs.Pairs order.
func referencePairs(msgs Messages) []clockfix.Pair {
	pairs := make([]clockfix.Pair, len(msgs.Pairs))
	for i, mp := range msgs.Pairs {
		pairs[i] = clockfix.Pair{
			Src: mp.Send.Rank, Dst: mp.Recv.Rank, Tag: mp.Recv.Tag,
			SendTime: mp.Send.Time, RecvTime: mp.Recv.Time,
		}
	}
	return pairs
}

// TestClockskewMatchesSortedPairsProperty pins the clockskew analyzer,
// which filters violations from unsorted pairs and sorts only them, to
// the finish that sorted every pair by (SendTime, Src, Dst) first, on
// randomOps sets with per-rank clock skew and minimal latencies of 0–39
// ns. The diagnostics must be
// identical except for the order among violations tied on (SendTime,
// Src, Dst), which the total order now fixes by (Tag, RecvTime) — and
// with it which tied violations make the listed 50.
func TestClockskewMatchesSortedPairsProperty(t *testing.T) {
	var capped, tied, drifted int
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			defer parallel.SetJobs(parallel.SetJobs(jobs))
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nranks, ops := randomOps(rng)
				minLatency := trace.Duration(seed % 40)
				for rank := range ops {
					skew := trace.Duration(rng.Intn(41) - 20)
					for i := range ops[rank] {
						ops[rank][i].Time += skew
					}
				}
				p := &Pass{analyzer: clockskewAnalyzer{}, facts: &facts{nranks: nranks, ops: ops, minLatency: minLatency}}
				if err := (clockskewVisitor{p: p}).Finish(); err != nil {
					t.Fatal(err)
				}
				want, stats := referenceClockskew(nranks, ops, minLatency)
				if !reflect.DeepEqual(p.diags, want) {
					t.Fatalf("seed %d (%d ranks): clockskew diagnostics differ from the sorted-pairs reference\ngot  %+v\nwant %+v",
						seed, nranks, p.diags, want)
				}
				capped += stats.capped
				tied += stats.tied
				drifted += stats.drifted
			}
		})
	}
	if capped == 0 || tied == 0 || drifted == 0 {
		t.Fatalf("draws exercise too little: %d capped lists, %d tied violations, %d non-converging relaxations", capped, tied, drifted)
	}
}

// clockskewDraw counts what one reference run exercised.
type clockskewDraw struct{ capped, tied, drifted int }

// referenceClockskew is the clockskew finish as it ran on pairs sorted
// by (SendTime, Src, Dst) with pdqsort, kept as the property test's
// oracle, with the one intended change applied: violations tied on
// those keys are listed by (Tag, RecvTime).
func referenceClockskew(nranks int, ops [][]clockfix.Op, minLatency trace.Duration) ([]Diagnostic, clockskewDraw) {
	var draw clockskewDraw
	pairs := referencePairs(referenceMatchOps(nranks, ops))
	sortSlice(pairs, func(a, b clockfix.Pair) bool {
		if a.SendTime != b.SendTime {
			return a.SendTime < b.SendTime
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	var viols []clockfix.Violation
	for _, p := range pairs {
		if deficit := p.SendTime + minLatency - p.RecvTime; deficit > 0 {
			viols = append(viols, clockfix.Violation{
				Src: p.Src, Dst: p.Dst, Tag: p.Tag,
				SendTime: p.SendTime, RecvTime: p.RecvTime,
				Deficit: deficit,
			})
		}
	}
	for i := 0; i < len(viols); {
		j := i + 1
		for j < len(viols) && viols[j].SendTime == viols[i].SendTime && viols[j].Src == viols[i].Src && viols[j].Dst == viols[i].Dst {
			j++
		}
		if j-i > 1 {
			draw.tied++
		}
		sortSlice(viols[i:j], func(a, b clockfix.Violation) bool {
			if a.Tag != b.Tag {
				return a.Tag < b.Tag
			}
			return a.RecvTime < b.RecvTime
		})
		i = j
	}

	p := &Pass{analyzer: clockskewAnalyzer{}, facts: &facts{nranks: nranks, minLatency: minLatency}}
	for i, viol := range viols {
		if i >= maxPerFinding {
			draw.capped++
			p.Reportf(SeverityWarning, "causality-violation", -1, -1, 0,
				"%d more causality violations not listed", len(viols)-i)
			break
		}
		p.Report(Diagnostic{
			Code: "causality-violation", Severity: SeverityWarning,
			Rank: viol.Dst, Event: -1, Time: viol.RecvTime,
			Message: sprintf("message from rank %d (tag %d) received %d ns before it could arrive (sent %d, min latency %d)",
				viol.Src, viol.Tag, viol.Deficit, viol.SendTime, p.MinLatency()),
			SuggestedFix: "shift per-rank clocks (pvtlint -fix or perfvar.CorrectClocks)",
			Fixable:      true,
		})
	}
	if len(viols) == 0 {
		return p.diags, draw
	}
	_, iters, converged := clockfix.OffsetsFromPairs(nranks, pairs, minLatency, 0)
	if !converged {
		draw.drifted++
		p.Reportf(SeverityWarning, "clock-drift", -1, -1, 0,
			"per-rank offset relaxation did not converge after %d sweeps: clock rate drift that constant offsets cannot repair", iters)
	}
	return p.diags, draw
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
