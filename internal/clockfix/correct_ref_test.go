package clockfix_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"perfvar"
	"perfvar/internal/clockfix"
	"perfvar/internal/lint"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// randomMessageTrace draws a well-nested trace of nranks ranks whose
// ranks exchange random point-to-point messages (some never received),
// then shifts every rank's clock by a random skew. With drift set, each
// receive also lands a random amount early, so that constant offsets
// cannot always repair the violations.
func randomMessageTrace(rng *rand.Rand, nranks int, drift bool) *trace.Trace {
	tr := trace.New(fmt.Sprintf("msgs-%d", nranks), nranks)
	main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
	evs := make([][]trace.Event, nranks)
	end := trace.Time(0)
	for m, n := 0, rng.Intn(8*nranks); m < n; m++ {
		src, dst := rng.Intn(nranks), rng.Intn(nranks)
		tag := int32(rng.Intn(3))
		sent := trace.Time(30_000 + rng.Intn(100_000))
		recv := sent + trace.Time(rng.Intn(5_000))
		if drift {
			recv -= trace.Time(rng.Intn(20_000))
		}
		evs[src] = append(evs[src], trace.Send(sent, trace.Rank(dst), tag, int64(rng.Intn(1<<12))))
		if rng.Intn(8) > 0 {
			evs[dst] = append(evs[dst], trace.Recv(recv, trace.Rank(src), tag, 64))
		}
		end = max(end, sent, recv)
	}
	skew := make([]trace.Duration, nranks)
	for rank := range evs {
		sort.SliceStable(evs[rank], func(i, j int) bool { return evs[rank][i].Time < evs[rank][j].Time })
		tr.Append(trace.Rank(rank), trace.Enter(0, main))
		for _, ev := range evs[rank] {
			tr.Append(trace.Rank(rank), ev)
		}
		tr.Append(trace.Rank(rank), trace.Leave(end+1, main))
		skew[rank] = trace.Duration(rng.Intn(60_000) - 30_000)
	}
	skewed, err := referenceApply(tr, skew)
	if err != nil {
		panic(err)
	}
	return skewed
}

// encode returns the PVTR bytes of tr.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collect materializes the streams of src.
func collect(t *testing.T, src perfvar.Source) *trace.Trace {
	t.Helper()
	st, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := st.Header()
	tr := trace.New(h.Name, st.NumRanks())
	tr.Regions, tr.Metrics = h.Regions, h.Metrics
	for rank := range tr.Procs {
		tr.Procs[rank].Proc = h.Procs[rank]
		if err := st.StreamRank(rank, func(ev trace.Event) error {
			tr.Procs[rank].Events = append(tr.Procs[rank].Events, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestCorrectMatchesReferenceProperty pins the one-match clock
// correction to the map-based matcher and the two-match Correct it
// replaced, over seeds × 1–64 ranks × random skews, with and without
// drift: the ClockInfo of Correct and of CorrectClocksSource, the bytes
// of the corrected trace and of the corrected source's streams, and
// lint.Fix's report and fixed trace.
func TestCorrectMatchesReferenceProperty(t *testing.T) {
	const minLatency = 1_000
	defer parallel.SetJobs(parallel.SetJobs(4))
	var applied, diverged int
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nranks := 1 + rng.Intn(64)
		tr := randomMessageTrace(rng, nranks, seed%3 == 2)

		wantFixed, wantInfo, err := referenceCorrect(tr, minLatency)
		if err != nil {
			t.Fatal(err)
		}
		want := encode(t, wantFixed)

		fixed, info, err := clockfix.Correct(tr, minLatency)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(info, wantInfo) {
			t.Fatalf("seed %d (%d ranks): Correct info %+v, want %+v", seed, nranks, info, wantInfo)
		}
		if !bytes.Equal(encode(t, fixed), want) {
			t.Fatalf("seed %d (%d ranks): Correct's trace differs from the reference", seed, nranks)
		}

		src, info, err := perfvar.CorrectClocksSource(context.Background(), perfvar.TraceSource(tr), minLatency)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(info, wantInfo) {
			t.Fatalf("seed %d (%d ranks): CorrectClocksSource info %+v, want %+v", seed, nranks, info, wantInfo)
		}
		if !bytes.Equal(encode(t, collect(t, src)), want) {
			t.Fatalf("seed %d (%d ranks): corrected streams differ from the reference trace", seed, nranks)
		}

		gotFix, gotRep := lint.Fix(tr, minLatency)
		wantFix, wantRep := referenceFixClocks(tr, minLatency)
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("seed %d (%d ranks): lint.Fix report %+v, want %+v", seed, nranks, gotRep, wantRep)
		}
		if !bytes.Equal(encode(t, gotFix), encode(t, wantFix)) {
			t.Fatalf("seed %d (%d ranks): lint.Fix trace differs from the reference", seed, nranks)
		}
		if wantRep.ClockApplied {
			applied++
		}
		if !wantInfo.Converged {
			diverged++
		}
	}
	// Both of Fix's branches and non-converging corrections must occur.
	if applied == 0 || diverged == 0 || applied == 120 {
		t.Fatalf("draws exercise too little: %d of 120 fixes applied offsets, %d corrections diverged", applied, diverged)
	}
}

// The reference implementation below is the serial, map-based matcher
// and the two-match Correct that clockfix.Match and the one-match
// CorrectStreams replaced, kept verbatim as the property test's oracle.

type referenceOp struct {
	Recv bool
	Peer trace.Rank
	Tag  int32
	Time trace.Time
}

func referenceMatchOps(ops [][]referenceOp) []clockfix.Pair {
	type key struct {
		src, dst trace.Rank
		tag      int32
	}
	sends := make(map[key][]trace.Time)
	for rank := range ops {
		for _, op := range ops[rank] {
			if !op.Recv {
				k := key{src: trace.Rank(rank), dst: op.Peer, tag: op.Tag}
				sends[k] = append(sends[k], op.Time)
			}
		}
	}
	used := make(map[key]int)
	var pairs []clockfix.Pair
	for rank := range ops {
		for _, op := range ops[rank] {
			if !op.Recv {
				continue
			}
			k := key{src: op.Peer, dst: trace.Rank(rank), tag: op.Tag}
			idx := used[k]
			if idx >= len(sends[k]) {
				continue
			}
			used[k] = idx + 1
			pairs = append(pairs, clockfix.Pair{
				Src: op.Peer, Dst: trace.Rank(rank), Tag: op.Tag,
				SendTime: sends[k][idx], RecvTime: op.Time,
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].SendTime != pairs[j].SendTime {
			return pairs[i].SendTime < pairs[j].SendTime
		}
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return pairs
}

func referenceOpsFromTrace(tr *trace.Trace) [][]referenceOp {
	ops := make([][]referenceOp, tr.NumRanks())
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			switch ev.Kind {
			case trace.KindSend:
				ops[rank] = append(ops[rank], referenceOp{Peer: ev.Peer, Tag: ev.Tag, Time: ev.Time})
			case trace.KindRecv:
				ops[rank] = append(ops[rank], referenceOp{Recv: true, Peer: ev.Peer, Tag: ev.Tag, Time: ev.Time})
			}
		}
	}
	return ops
}

func referenceViolations(tr *trace.Trace, minLatency trace.Duration) []clockfix.Violation {
	return clockfix.ViolationsFromPairs(referenceMatchOps(referenceOpsFromTrace(tr)), minLatency)
}

func referenceEstimateOffsets(tr *trace.Trace, minLatency trace.Duration, maxIter int) ([]trace.Duration, int, bool) {
	return clockfix.OffsetsFromPairs(tr.NumRanks(), referenceMatchOps(referenceOpsFromTrace(tr)), minLatency, maxIter)
}

func referenceApply(tr *trace.Trace, offsets []trace.Duration) (*trace.Trace, error) {
	if len(offsets) != tr.NumRanks() {
		return nil, fmt.Errorf("clockfix: %d offsets for %d ranks", len(offsets), tr.NumRanks())
	}
	origFirst, _ := tr.Span()
	out := trace.New(tr.Name, tr.NumRanks())
	out.Regions = append([]trace.Region(nil), tr.Regions...)
	out.Metrics = append([]trace.Metric(nil), tr.Metrics...)

	// Find the new minimum to renormalize.
	newFirst := trace.Time(0)
	any := false
	for rank := range tr.Procs {
		if len(tr.Procs[rank].Events) == 0 {
			continue
		}
		first := tr.Procs[rank].Events[0].Time + offsets[rank]
		if !any || first < newFirst {
			newFirst = first
		}
		any = true
	}
	shiftBack := trace.Duration(0)
	if any {
		shiftBack = newFirst - origFirst
	}

	for rank := range tr.Procs {
		out.Procs[rank].Proc = tr.Procs[rank].Proc
		evs := make([]trace.Event, len(tr.Procs[rank].Events))
		copy(evs, tr.Procs[rank].Events)
		d := offsets[rank] - shiftBack
		for i := range evs {
			evs[i].Time += d
		}
		out.Procs[rank].Events = evs
	}
	return out, nil
}

func referenceCorrect(tr *trace.Trace, minLatency trace.Duration) (*trace.Trace, clockfix.Info, error) {
	info := clockfix.Info{ViolationsBefore: len(referenceViolations(tr, minLatency))}
	offsets, iters, converged := referenceEstimateOffsets(tr, minLatency, 0)
	info.Offsets = offsets
	info.Iterations = iters
	info.Converged = converged
	fixed, err := referenceApply(tr, offsets)
	if err != nil {
		return nil, info, err
	}
	info.ViolationsAfter = len(referenceViolations(fixed, minLatency))
	return fixed, info, nil
}

// referenceFixClocks is lint.Fix's clock step as it ran on the
// reference matcher, three matchings deep. It is the whole of lint.Fix
// on the structurally clean traces randomMessageTrace draws, whose
// per-rank repairs change nothing.
func referenceFixClocks(tr *trace.Trace, minLatency trace.Duration) (*trace.Trace, *lint.FixReport) {
	rep := &lint.FixReport{}
	out := tr.Transform(func(_ trace.Rank, events []trace.Event) []trace.Event {
		return append(make([]trace.Event, 0, len(events)), events...)
	})
	if viols := referenceViolations(out, minLatency); len(viols) > 0 {
		offsets, _, _ := referenceEstimateOffsets(out, minLatency, 0)
		if fixed, err := referenceApply(out, offsets); err == nil &&
			len(referenceViolations(fixed, minLatency)) == 0 {
			out = fixed
			rep.ClockApplied = true
			rep.ClockOffsets = offsets
		}
	}
	return out, rep
}
