package causality

import (
	"context"
	"sync"
	"testing"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

// regions adds the standard test region set: a user "step" function to
// segment on, plus MPI point-to-point and wait regions.
func regions(tr *trace.Trace) (step, snd, rcv, wait trace.RegionID) {
	step = tr.AddRegion("step", trace.ParadigmUser, trace.RoleFunction)
	snd = tr.AddRegion("MPI_Send", trace.ParadigmMPI, trace.RolePointToPoint)
	rcv = tr.AddRegion("MPI_Recv", trace.ParadigmMPI, trace.RolePointToPoint)
	wait = tr.AddRegion("MPI_Waitall", trace.ParadigmMPI, trace.RoleWait)
	return
}

func matrix(t *testing.T, tr *trace.Trace, region trace.RegionID) *segment.Matrix {
	t.Helper()
	m, err := segment.Compute(tr, region, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scans feeds each rank of tr through its own RankScanner, as the
// streaming callers of Build do.
func scans(tr *trace.Trace) []*RankScanner {
	out := make([]*RankScanner, tr.NumRanks())
	for rank := range tr.Procs {
		out[rank] = NewRankScanner(tr.Regions)
		for _, ev := range tr.Procs[rank].Events {
			out[rank].Feed(ev)
		}
	}
	return out
}

func build(t *testing.T, in Input) *Graph {
	t.Helper()
	g, err := BuildContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// recvEvent locates the n-th receive event of rank (0-based).
func recvEvent(tr *trace.Trace, rank trace.Rank, n int) (int, trace.Time) {
	for i, ev := range tr.Procs[rank].Events {
		if ev.Kind == trace.KindRecv {
			if n == 0 {
				return i, ev.Time
			}
			n--
		}
	}
	panic("recv event not found")
}

func TestLateSenderClassification(t *testing.T) {
	tr := trace.New("latesender", 2)
	step, snd, rcv, _ := regions(tr)
	// Rank 0 computes until 100, then sends; rank 1 waits in MPI_Recv
	// from time 10 until the message lands at 101.
	tr.Append(0, trace.Enter(0, step))
	tr.Append(0, trace.Enter(100, snd))
	tr.Append(0, trace.Send(100, 1, 0, 8))
	tr.Append(0, trace.Leave(101, snd))
	tr.Append(0, trace.Leave(200, step))
	tr.Append(1, trace.Enter(0, step))
	tr.Append(1, trace.Enter(10, rcv))
	tr.Append(1, trace.Recv(101, 0, 0, 8))
	tr.Append(1, trace.Leave(101, rcv))
	tr.Append(1, trace.Leave(200, step))

	ev, rt := recvEvent(tr, 1, 0)
	g := build(t, Input{
		Scans: scans(tr), Matrix: matrix(t, tr, step),
		Pairs: []Pair{{SendRank: 0, SendTime: 100, RecvRank: 1, RecvTime: rt, RecvEvent: ev}},
	})
	if len(g.Edges) != 1 {
		t.Fatalf("edges = %+v, want 1", g.Edges)
	}
	e := g.Edges[0]
	if e.Kind != LateSender {
		t.Fatalf("kind = %v, want late-sender", e.Kind)
	}
	if e.Causer != (Node{Rank: 0, Segment: 0}) || e.Waiter != (Node{Rank: 1, Segment: 0}) {
		t.Fatalf("edge endpoints = %+v", e)
	}
	if e.Wait != 91 { // 101 (completion) - 10 (wait start)
		t.Fatalf("wait = %d, want 91", e.Wait)
	}
}

func TestLateReceiverClassification(t *testing.T) {
	tr := trace.New("latereceiver", 2)
	step, snd, rcv, _ := regions(tr)
	// Rank 0 sends at 5; rank 1 only asks for the message at 50.
	tr.Append(0, trace.Enter(0, step))
	tr.Append(0, trace.Enter(5, snd))
	tr.Append(0, trace.Send(5, 1, 0, 8))
	tr.Append(0, trace.Leave(6, snd))
	tr.Append(0, trace.Leave(200, step))
	tr.Append(1, trace.Enter(0, step))
	tr.Append(1, trace.Enter(50, rcv))
	tr.Append(1, trace.Recv(51, 0, 0, 8))
	tr.Append(1, trace.Leave(51, rcv))
	tr.Append(1, trace.Leave(200, step))

	ev, rt := recvEvent(tr, 1, 0)
	g := build(t, Input{
		Scans: scans(tr), Matrix: matrix(t, tr, step),
		Pairs: []Pair{{SendRank: 0, SendTime: 5, RecvRank: 1, RecvTime: rt, RecvEvent: ev}},
	})
	if len(g.Edges) != 1 || g.Edges[0].Kind != LateReceiver {
		t.Fatalf("edges = %+v, want one late-receiver", g.Edges)
	}
	if g.Edges[0].Slack != 45 || g.Edges[0].Wait != 1 {
		t.Fatalf("slack/wait = %d/%d, want 45/1", g.Edges[0].Slack, g.Edges[0].Wait)
	}
	an := Analyze(g, Options{})
	if an.LateSenderCount != 0 || an.LateReceiverCount != 1 || an.LateReceiverSlack != 45 {
		t.Fatalf("analysis = %+v", an)
	}
	if len(an.Ranks) != 0 {
		t.Fatalf("late receiver must not create blame, got %+v", an.Ranks)
	}
}

func TestRecvOutsideSyncRegionSkipped(t *testing.T) {
	tr := trace.New("bare", 2)
	step, _, _, _ := regions(tr)
	tr.Append(0, trace.Enter(0, step))
	tr.Append(0, trace.Send(100, 1, 0, 8))
	tr.Append(0, trace.Leave(200, step))
	tr.Append(1, trace.Enter(0, step))
	tr.Append(1, trace.Recv(150, 0, 0, 8)) // not inside any MPI region
	tr.Append(1, trace.Leave(200, step))

	ev, rt := recvEvent(tr, 1, 0)
	g := build(t, Input{
		Scans: scans(tr), Matrix: matrix(t, tr, step),
		Pairs: []Pair{{SendRank: 0, SendTime: 100, RecvRank: 1, RecvTime: rt, RecvEvent: ev}},
	})
	if len(g.Edges) != 0 {
		t.Fatalf("bare receive produced edges: %+v", g.Edges)
	}
}

func TestWaitallSecondWaitStartsAtFirstCompletion(t *testing.T) {
	tr := trace.New("waitall", 3)
	step, snd, _, wait := regions(tr)
	tr.Append(0, trace.Enter(0, step))
	tr.Append(0, trace.Enter(90, snd))
	tr.Append(0, trace.Send(90, 1, 0, 8))
	tr.Append(0, trace.Leave(91, snd))
	tr.Append(0, trace.Leave(300, step))
	tr.Append(1, trace.Enter(0, step))
	tr.Append(1, trace.Enter(10, wait))
	tr.Append(1, trace.Recv(100, 0, 0, 8))
	tr.Append(1, trace.Recv(150, 2, 0, 8))
	tr.Append(1, trace.Leave(150, wait))
	tr.Append(1, trace.Leave(300, step))
	tr.Append(2, trace.Enter(0, step))
	tr.Append(2, trace.Enter(120, snd))
	tr.Append(2, trace.Send(120, 1, 0, 8))
	tr.Append(2, trace.Leave(121, snd))
	tr.Append(2, trace.Leave(300, step))

	ev0, rt0 := recvEvent(tr, 1, 0)
	ev1, rt1 := recvEvent(tr, 1, 1)
	g := build(t, Input{
		Scans: scans(tr), Matrix: matrix(t, tr, step),
		Pairs: []Pair{
			{SendRank: 0, SendTime: 90, RecvRank: 1, RecvTime: rt0, RecvEvent: ev0},
			{SendRank: 2, SendTime: 120, RecvRank: 1, RecvTime: rt1, RecvEvent: ev1},
		},
	})
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %+v, want 2", g.Edges)
	}
	// First message: waiting since 10, completes 100 → 90 ns idle.
	// Second: the wait on it only starts when the first landed (100),
	// not at the Waitall enter — 150-100 = 50, not 140.
	for _, e := range g.Edges {
		switch e.Causer.Rank {
		case 0:
			if e.Kind != LateSender || e.Wait != 90 {
				t.Errorf("edge from rank 0: %+v, want late-sender wait 90", e)
			}
		case 2:
			if e.Kind != LateSender || e.Wait != 50 {
				t.Errorf("edge from rank 2: %+v, want late-sender wait 50", e)
			}
		}
	}
}

func TestCollectiveBlameDecomposition(t *testing.T) {
	tr := trace.New("collective", 3)
	step := tr.AddRegion("step", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	enters := []trace.Time{10, 20, 40}
	for rank := trace.Rank(0); rank < 3; rank++ {
		tr.Append(rank, trace.Enter(0, step))
		tr.Append(rank, trace.Enter(enters[rank], bar))
		tr.Append(rank, trace.Leave(50, bar))
		tr.Append(rank, trace.Leave(60, step))
	}
	g := build(t, Input{Scans: scans(tr), Matrix: matrix(t, tr, step)})
	if len(g.Collectives) != 1 {
		t.Fatalf("collectives = %+v, want 1", g.Collectives)
	}
	c := g.Collectives[0]
	if c.Release != 40 {
		t.Fatalf("release = %d, want 40", c.Release)
	}
	wantWait := []trace.Duration{30, 20, 0}
	wantBlame := []trace.Duration{0, 10, 40} // (20-10)*1, (40-20)*2
	for i, a := range c.Arrivals {
		if a.Wait != wantWait[i] || a.Blame != wantBlame[i] {
			t.Errorf("arrival %d: wait %d blame %d, want %d/%d", i, a.Wait, a.Blame, wantWait[i], wantBlame[i])
		}
	}
	an := Analyze(g, Options{})
	if an.CollectiveCount != 1 || an.CollectiveWait != 50 {
		t.Fatalf("collective summary = %+v", an)
	}
	// Rank 2, the last arriver, carries the most blame.
	if len(an.Ranks) == 0 || an.Ranks[0].Rank != 2 {
		t.Fatalf("ranks = %+v, want rank 2 first", an.Ranks)
	}
}

// chainTrace builds a 3-rank, two-iteration wait chain: rank 0 computes
// long and sends late to rank 1, which immediately forwards to rank 2.
// Rank 1 is a pure relay — all blame must fold back onto rank 0.
func chainTrace(t *testing.T) (*trace.Trace, *segment.Matrix, []Pair) {
	tr := trace.New("chain", 3)
	step, snd, rcv, _ := regions(tr)
	var pairs []Pair
	for it := 0; it < 2; it++ {
		t0 := trace.Time(it) * 1000
		tr.Append(0, trace.Enter(t0, step))
		tr.Append(0, trace.Enter(t0+200, snd))
		tr.Append(0, trace.Send(t0+200, 1, 0, 8))
		tr.Append(0, trace.Leave(t0+201, snd))
		tr.Append(0, trace.Leave(t0+300, step))
		tr.Append(1, trace.Enter(t0, step))
		tr.Append(1, trace.Enter(t0+10, rcv))
		tr.Append(1, trace.Recv(t0+210, 0, 0, 8))
		tr.Append(1, trace.Leave(t0+210, rcv))
		tr.Append(1, trace.Enter(t0+215, snd))
		tr.Append(1, trace.Send(t0+215, 2, 0, 8))
		tr.Append(1, trace.Leave(t0+216, snd))
		tr.Append(1, trace.Leave(t0+300, step))
		tr.Append(2, trace.Enter(t0, step))
		tr.Append(2, trace.Enter(t0+20, rcv))
		tr.Append(2, trace.Recv(t0+225, 1, 0, 8))
		tr.Append(2, trace.Leave(t0+225, rcv))
		tr.Append(2, trace.Leave(t0+300, step))
	}
	for it := 0; it < 2; it++ {
		t0 := trace.Time(it) * 1000
		ev1, rt1 := recvEvent(tr, 1, it)
		ev2, rt2 := recvEvent(tr, 2, it)
		pairs = append(pairs,
			Pair{SendRank: 0, SendTime: t0 + 200, RecvRank: 1, RecvTime: rt1, RecvEvent: ev1},
			Pair{SendRank: 1, SendTime: t0 + 215, RecvRank: 2, RecvTime: rt2, RecvEvent: ev2},
		)
	}
	return tr, matrix(t, tr, step), pairs
}

func TestWaitChainFoldsBlameOntoOrigin(t *testing.T) {
	tr, m, pairs := chainTrace(t)
	g := build(t, Input{Scans: scans(tr), Matrix: m, Pairs: pairs})
	an := Analyze(g, Options{})
	if err := ResolveFunctions(context.Background(), an, tr.Regions, tr.StreamRank); err != nil {
		t.Fatal(err)
	}

	// Per iteration: rank 0 directly delays rank 1 by 200 (210-10) and
	// rank 1 directly delays rank 2 by 205 (225-20); rank 1 has zero
	// excess SOS over the column median, so its 205 fold entirely onto
	// rank 0: 405 per iteration, 810 over both.
	if len(an.Ranks) != 1 || an.Ranks[0].Rank != 0 {
		t.Fatalf("ranks = %+v, want only rank 0", an.Ranks)
	}
	if an.Ranks[0].CausedWait != 810 || an.Ranks[0].Segments != 2 {
		t.Fatalf("rank 0 attribution = %+v, want 810 over 2 segments", an.Ranks[0])
	}
	if len(an.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	top := an.Candidates[0]
	if top.Rank != 0 || top.Function != "step" {
		t.Fatalf("top candidate = %+v, want rank 0 in step", top)
	}
	if top.DirectWait != 200 || top.CausedWait != 405 {
		t.Fatalf("top candidate waits = direct %d propagated %d, want 200/405", top.DirectWait, top.CausedWait)
	}
	if top.SOS != 299 { // 300 inclusive - 1 in MPI_Send
		t.Fatalf("top candidate SOS = %d, want 299", top.SOS)
	}
	if an.LateSenderWait != 810 || an.LateSenderCount != 4 {
		t.Fatalf("late-sender totals = %d/%d, want 810/4", an.LateSenderWait, an.LateSenderCount)
	}
}

func TestMalformedStreamDoesNotPanic(t *testing.T) {
	tr := trace.New("mangled", 2)
	step, snd, rcv, wait := regions(tr)
	bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	// Stray leaves, unclosed regions, receives with absurd times.
	tr.Append(0, trace.Enter(0, step))
	tr.Append(0, trace.Leave(5, bar)) // leave without enter
	tr.Append(0, trace.Enter(10, bar))
	tr.Append(0, trace.Enter(20, wait))
	tr.Append(0, trace.Recv(1, 1, 0, 8)) // completion before wait start
	tr.Append(0, trace.Leave(30, snd))   // leave of a region never entered
	tr.Append(0, trace.Leave(200, step)) // bar and wait left open
	tr.Append(1, trace.Enter(0, step))
	tr.Append(1, trace.Enter(10, rcv))
	tr.Append(1, trace.Recv(50, 0, 0, 8))
	tr.Append(1, trace.Leave(200, step)) // rcv left open

	m, err := segment.Compute(tr, step, nil)
	if err != nil {
		t.Skipf("segmentation rejected the mangled trace: %v", err)
	}
	ev0, rt0 := recvEvent(tr, 0, 0)
	ev1, rt1 := recvEvent(tr, 1, 0)
	g := build(t, Input{
		Scans: scans(tr), Matrix: m,
		Pairs: []Pair{
			{SendRank: 1, SendTime: 40, RecvRank: 0, RecvTime: rt0, RecvEvent: ev0},
			{SendRank: 0, SendTime: 45, RecvRank: 1, RecvTime: rt1, RecvEvent: ev1},
		},
		Unmatched: []RankDep{{From: 0, To: 1}, {From: 1, To: 0}},
	})
	an := Analyze(g, Options{})
	for _, e := range g.Edges {
		if e.Wait < 0 || e.Slack < 0 {
			t.Fatalf("negative wait on edge %+v", e)
		}
	}
	if len(an.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want the 0↔1 cycle", an.Cycles)
	}
}

// TestResolveFunctionsStreamsEachRankOnce: both chain candidates sit on
// rank 0, so resolving their functions streams rank 0 once and no other
// rank.
func TestResolveFunctionsStreamsEachRankOnce(t *testing.T) {
	tr, m, pairs := chainTrace(t)
	an := Analyze(build(t, Input{Scans: scans(tr), Matrix: m, Pairs: pairs}), Options{})
	if len(an.Candidates) != 2 || an.Candidates[0].Function != "" {
		t.Fatalf("candidates before resolving = %+v, want two without function", an.Candidates)
	}
	var mu sync.Mutex
	calls := map[int]int{}
	err := ResolveFunctions(context.Background(), an, tr.Regions, func(rank int, fn func(trace.Event) error) error {
		mu.Lock()
		calls[rank]++
		mu.Unlock()
		return tr.StreamRank(rank, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != 1 {
		t.Fatalf("stream calls per rank = %v, want rank 0 once", calls)
	}
	for _, c := range an.Candidates {
		if c.Function != "step" {
			t.Errorf("candidate %+v: function %q, want step", c, c.Function)
		}
	}
}
