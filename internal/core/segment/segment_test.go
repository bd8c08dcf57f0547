package segment

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"perfvar/internal/callstack"
	"perfvar/internal/chunk"
	"perfvar/internal/core/dominant"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// TestFig3SOSTimes reproduces the paper's Figure 3 exactly: segment
// durations are equalized by the barrier (6, 3, 5 steps), while SOS-times
// reveal the per-rank calc imbalance (first iteration: 5, 3, 1).
func TestFig3SOSTimes(t *testing.T) {
	tr := workloads.Fig3Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Fig3 trace invalid: %v", err)
	}
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Dominant.Name != "a" {
		t.Fatalf("dominant = %q, want a", sel.Dominant.Name)
	}
	m, err := Compute(tr, sel.Dominant.Region, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Rectangular() || m.Iterations() != 3 || m.NumRanks() != 3 {
		t.Fatalf("matrix shape: rect=%v iters=%d ranks=%d", m.Rectangular(), m.Iterations(), m.NumRanks())
	}
	durations := workloads.Fig3SegmentDurations()
	for iter := 0; iter < 3; iter++ {
		for rank := trace.Rank(0); rank < 3; rank++ {
			seg := m.PerRank[rank][iter]
			wantIncl := durations[iter] * workloads.ToyStep
			if seg.Inclusive() != wantIncl {
				t.Errorf("iter %d rank %d inclusive = %d, want %d", iter, rank, seg.Inclusive(), wantIncl)
			}
			wantSOS := workloads.Fig3CalcTimes[iter][rank] * workloads.ToyStep
			if seg.SOS() != wantSOS {
				t.Errorf("iter %d rank %d SOS = %d, want %d", iter, rank, seg.SOS(), wantSOS)
			}
		}
	}
	// The paper's headline numbers: first iteration SOS-times 5, 3, 1.
	col := m.ColumnSOS(0)
	want := []float64{5, 3, 1}
	for i := range want {
		if col[i] != want[i]*float64(workloads.ToyStep) {
			t.Errorf("first-iteration SOS[%d] = %g, want %g steps", i, col[i], want[i])
		}
	}
}

func TestSegmentAccessors(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalSegments(); got != 9 {
		t.Fatalf("TotalSegments = %d, want 9", got)
	}
	if got := len(m.SOSValues()); got != 9 {
		t.Fatalf("SOSValues len = %d", got)
	}
	if got := len(m.InclusiveValues()); got != 9 {
		t.Fatalf("InclusiveValues len = %d", got)
	}
	if got := m.RankSOS(0); len(got) != 3 || got[0] != float64(5*workloads.ToyStep) {
		t.Fatalf("RankSOS(0) = %v", got)
	}
	if got := m.Column(1); len(got) != 3 || got[2].Rank != 2 {
		t.Fatalf("Column(1) = %+v", got)
	}
	if got := m.Column(99); len(got) != 0 {
		t.Fatalf("Column(99) = %+v", got)
	}
}

func TestClassifiers(t *testing.T) {
	mpiRegion := trace.Region{Name: "MPI_Wait", Paradigm: trace.ParadigmMPI, Role: trace.RoleWait}
	ompRegion := trace.Region{Name: "omp_barrier", Paradigm: trace.ParadigmOpenMP, Role: trace.RoleBarrier}
	ioRegion := trace.Region{Name: "write", Paradigm: trace.ParadigmIO, Role: trace.RoleFileIO}
	userRegion := trace.Region{Name: "calc", Paradigm: trace.ParadigmUser, Role: trace.RoleFunction}

	if !DefaultSync.IsSync(mpiRegion) || !DefaultSync.IsSync(ompRegion) {
		t.Error("DefaultSync must cover MPI and OpenMP")
	}
	if DefaultSync.IsSync(ioRegion) || DefaultSync.IsSync(userRegion) {
		t.Error("DefaultSync must not cover IO or user regions")
	}
	all := ParadigmSync{MPI: true, OpenMP: true, IO: true}
	if !all.IsSync(ioRegion) {
		t.Error("ParadigmSync{IO:true} must cover IO")
	}
	var none ParadigmSync
	if none.IsSync(mpiRegion) {
		t.Error("zero ParadigmSync must classify nothing")
	}

	ns := NameSync{"MPI_", "omp_"}
	if !ns.IsSync(mpiRegion) || !ns.IsSync(ompRegion) || ns.IsSync(userRegion) {
		t.Error("NameSync prefix matching broken")
	}
}

func TestNameSyncEquivalentToDefault(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	mDefault, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	mName, err := Compute(tr, r.ID, NameSync{"MPI"})
	if err != nil {
		t.Fatal(err)
	}
	for rank := range mDefault.PerRank {
		for i := range mDefault.PerRank[rank] {
			if mDefault.PerRank[rank][i] != mName.PerRank[rank][i] {
				t.Fatalf("rank %d seg %d differ: %+v vs %+v",
					rank, i, mDefault.PerRank[rank][i], mName.PerRank[rank][i])
			}
		}
	}
}

func TestNestedSyncCountedOnce(t *testing.T) {
	tr := trace.New("nested", 1)
	a := tr.AddRegion("a", trace.ParadigmUser, trace.RoleFunction)
	red := tr.AddRegion("MPI_Reduce", trace.ParadigmMPI, trace.RoleCollective)
	wait := tr.AddRegion("MPI_Wait", trace.ParadigmMPI, trace.RoleWait)
	// a [0,10): MPI_Reduce [2,8) containing MPI_Wait [3,7).
	tr.Append(0, trace.Enter(0, a))
	tr.Append(0, trace.Enter(2, red))
	tr.Append(0, trace.Enter(3, wait))
	tr.Append(0, trace.Leave(7, wait))
	tr.Append(0, trace.Leave(8, red))
	tr.Append(0, trace.Leave(10, a))
	m, err := Compute(tr, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := m.PerRank[0][0]
	if seg.Sync != 6 { // [2,8) once, not [2,8)+[3,7)
		t.Fatalf("Sync = %d, want 6", seg.Sync)
	}
	if seg.SOS() != 4 {
		t.Fatalf("SOS = %d, want 4", seg.SOS())
	}
}

func TestSelfNestedDominantExtendsSegment(t *testing.T) {
	tr := trace.New("selfnest", 1)
	a := tr.AddRegion("a", trace.ParadigmUser, trace.RoleFunction)
	mpi := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	// a [0,10) { a [2,6) { MPI [3,5) } }, then a [12,14).
	tr.Append(0, trace.Enter(0, a))
	tr.Append(0, trace.Enter(2, a))
	tr.Append(0, trace.Enter(3, mpi))
	tr.Append(0, trace.Leave(5, mpi))
	tr.Append(0, trace.Leave(6, a))
	tr.Append(0, trace.Leave(10, a))
	tr.Append(0, trace.Enter(12, a))
	tr.Append(0, trace.Leave(14, a))
	m, err := Compute(tr, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerRank[0]) != 2 {
		t.Fatalf("segments = %d, want 2 (outermost only)", len(m.PerRank[0]))
	}
	if s := m.PerRank[0][0]; s.Start != 0 || s.End != 10 || s.Sync != 2 || s.SOS() != 8 {
		t.Fatalf("outer segment = %+v", s)
	}
	if s := m.PerRank[0][1]; s.Inclusive() != 2 || s.Sync != 0 {
		t.Fatalf("second segment = %+v", s)
	}
}

func TestComputeErrors(t *testing.T) {
	tr := trace.New("bad", 1)
	a := tr.AddRegion("a", trace.ParadigmUser, trace.RoleFunction)
	if _, err := Compute(tr, trace.RegionID(42), nil); err == nil {
		t.Fatal("undefined region accepted")
	}
	tr.Append(0, trace.Enter(0, a)) // unclosed
	if _, err := Compute(tr, a, nil); err == nil {
		t.Fatal("unclosed invocation accepted")
	}
	tr2 := trace.New("bad2", 1)
	a2 := tr2.AddRegion("a", trace.ParadigmUser, trace.RoleFunction)
	tr2.Procs[0].Events = []trace.Event{trace.Leave(1, a2)}
	if _, err := Compute(tr2, a2, nil); err == nil {
		t.Fatal("leave-without-enter accepted")
	}
	// Interleaved leaves fail even though a itself stays balanced.
	tr3 := trace.New("nonlifo", 1)
	a3 := tr3.AddRegion("a", trace.ParadigmUser, trace.RoleFunction)
	u3 := tr3.AddRegion("u", trace.ParadigmUser, trace.RoleFunction)
	tr3.Procs[0].Events = []trace.Event{trace.Enter(0, a3), trace.Enter(1, u3), trace.Leave(2, a3), trace.Leave(3, u3)}
	// Compute names every region in its errors.
	want := `segment: rank 0 event 2: leave of "a" while "u" is open`
	if _, err := Compute(tr3, a3, nil); err == nil || err.Error() != want {
		t.Fatalf("interleaved leaves: err = %v, want %q", err, want)
	}
}

// TestKernelErrors pins the kernel's error contract: each structural
// defect fails at the offending event, and every message names the rank
// and the event index. NewStreamSegmenter knows only its own region's
// name; other regions are named by id.
func TestKernelErrors(t *testing.T) {
	const f, g, mpi = 0, 1, 2
	mask := []bool{false, false, true}
	tooDeep := make([]trace.Event, callstack.MaxDepth+2)
	for i := range tooDeep {
		tooDeep[i] = trace.Enter(trace.Time(i), g)
	}
	cases := []struct {
		name string
		evs  []trace.Event
		want string // message after "segment: rank 3 "
	}{
		{"undefined region", []trace.Event{trace.Enter(0, f), trace.Enter(1, 7)},
			"event 1: undefined region 7"},
		{"call stack deeper than MaxDepth", tooDeep,
			fmt.Sprintf("event %d: call-stack depth exceeds the representable maximum %d", callstack.MaxDepth+1, callstack.MaxDepth)},
		{"leave on empty stack", []trace.Event{trace.Enter(0, f), trace.Leave(1, f), trace.Leave(2, g)},
			"event 2: leave of region 1 without enter"},
		{"leave not matching the open frame", []trace.Event{trace.Enter(0, f), trace.Enter(1, mpi), trace.Leave(2, f)},
			`event 2: leave of "f" while region 2 is open`},
		{"tracked region open at finish", []trace.Event{trace.Enter(0, g), trace.Leave(1, g), trace.Enter(2, f), trace.Enter(3, f)},
			`event 4: end of stream with 2 unclosed invocations of "f"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStreamSegmenter(3, f, "f", mask)
			var err error
			for _, ev := range tc.evs {
				if err = s.Feed(ev); err != nil {
					break
				}
			}
			if err == nil {
				_, err = s.Finish()
			}
			if want := "segment: rank 3 " + tc.want; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
	// Untracked regions may stay open at the end of the stream.
	s := NewStreamSegmenter(0, f, "f", mask)
	for _, ev := range []trace.Event{trace.Enter(0, g), trace.Enter(1, f), trace.Leave(2, f)} {
		if err := s.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := s.Finish(); err != nil || len(segs) != 1 {
		t.Fatalf("open untracked region: segs %+v, err %v", segs, err)
	}
	// A rejected event leaves the state unchanged, event index included:
	// the stream goes on as if it had never been fed.
	s = NewStreamSegmenter(3, f, "f", mask)
	for i, ev := range []trace.Event{trace.Enter(0, f), trace.Leave(1, g), trace.Leave(2, f), trace.Leave(3, f)} {
		err := s.Feed(ev)
		switch i {
		case 1:
			if err == nil {
				t.Fatal("mismatched leave accepted")
			}
		case 3:
			if want := "segment: rank 3 event 2: leave of \"f\" without enter"; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		default:
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if segs, err := s.Finish(); err != nil || len(segs) != 1 || segs[0].End != 2 {
		t.Fatalf("after rejected events: segs %+v, err %v", segs, err)
	}
}

func TestOverlayMetric(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := m.OverlayMetric(tr, "SOS-time")
	if _, ok := tr.MetricByName("SOS-time"); !ok {
		t.Fatal("overlay metric not defined")
	}
	times, values := tr.MetricSamplesRank(0, id)
	if len(times) != 3 {
		t.Fatalf("rank 0 overlay samples = %d, want 3", len(times))
	}
	if values[0] != float64(5*workloads.ToyStep) {
		t.Fatalf("first overlay value = %g", values[0])
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid after overlay: %v", err)
	}
}

// randomSegTrace builds a random single-rank trace of nested user and sync
// regions under repeated invocations of region "dom".
func randomSegTrace(seed int64) (*trace.Trace, trace.RegionID) {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("rnd", 1)
	dom := b.Region("dom", trace.ParadigmUser, trace.RoleFunction)
	user := b.Region("u", trace.ParadigmUser, trace.RoleFunction)
	sync := b.Region("MPI_X", trace.ParadigmMPI, trace.RoleCollective)
	now := trace.Time(0)
	nseg := 1 + rng.Intn(8)
	for s := 0; s < nseg; s++ {
		now += trace.Time(rng.Intn(5))
		b.Enter(0, now, dom)
		var stack []trace.RegionID
		for op := 0; op < rng.Intn(12); op++ {
			now += trace.Time(rng.Intn(10))
			if rng.Intn(2) == 0 || len(stack) == 0 {
				r := user
				if rng.Intn(2) == 0 {
					r = sync
				}
				b.Enter(0, now, r)
				stack = append(stack, r)
			} else {
				b.Leave(0, now, stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			}
		}
		for len(stack) > 0 {
			now += trace.Time(rng.Intn(10))
			b.Leave(0, now, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		now += trace.Time(rng.Intn(5))
		b.Leave(0, now, dom)
	}
	return b.Trace(), dom
}

// refSegments is the test oracle for segmentation, deliberately built
// differently from the kernel: it pairs every enter with its leave into
// invocation intervals, keeps the invocations of region that have no
// open invocation of region among their ancestors, and takes a
// segment's Sync as the length of the union of the sync invocations
// nested inside it.
func refSegments(rank trace.Rank, evs []trace.Event, region trace.RegionID, sync []bool) []Segment {
	type inv struct {
		region     trace.RegionID
		start, end trace.Time
		seg        int // segment the invocation lies in, or -1
	}
	var (
		invs  []inv
		stack []int
		segs  []Segment
		outer []int             // per segment: its outermost invocation
		syncs [][][2]trace.Time // per segment: nested sync intervals
	)
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindEnter:
			seg := -1
			for _, i := range stack {
				if invs[i].region == region {
					seg = invs[i].seg
					break
				}
			}
			if seg < 0 && ev.Region == region {
				seg = len(segs)
				segs = append(segs, Segment{Rank: rank, Index: seg, Start: ev.Time})
				outer = append(outer, len(invs))
				syncs = append(syncs, nil)
			}
			stack = append(stack, len(invs))
			invs = append(invs, inv{region: ev.Region, start: ev.Time, seg: seg})
		case trace.KindLeave:
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			invs[i].end = ev.Time
		}
	}
	for s, i := range outer {
		segs[s].End = invs[i].end
	}
	for _, iv := range invs {
		if iv.seg >= 0 && sync[iv.region] {
			syncs[iv.seg] = append(syncs[iv.seg], [2]trace.Time{iv.start, iv.end})
		}
	}
	for s, ivs := range syncs {
		// Invocations are in enter order, so ivs is sorted by start:
		// merge overlapping intervals and sum the union.
		var lo, hi trace.Time
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= hi {
				if iv[1] > hi {
					hi = iv[1]
				}
				continue
			}
			if open {
				segs[s].Sync += hi - lo
			}
			lo, hi, open = iv[0], iv[1], true
		}
		if open {
			segs[s].Sync += hi - lo
		}
	}
	return segs
}

// Property: every segmentation entry point — Compute, the single-region
// streaming segmenter and the multi-region candidate set — agrees with
// the interval-union oracle on random traces, under a classifier that
// subtracts MPI and under one that subtracts nothing.
func TestKernelMatchesReferenceProperty(t *testing.T) {
	classifiers := []SyncClassifier{DefaultSync, ParadigmSync{}}
	f := func(seed int64) bool {
		tr, dom := randomSegTrace(seed)
		evs := tr.Procs[0].Events
		for _, cls := range classifiers {
			mask := SyncMask(tr.Regions, cls)
			want := refSegments(0, evs, dom, mask)
			m, err := Compute(tr, dom, cls)
			if err != nil || !reflect.DeepEqual(nilIfEmpty(m.PerRank[0]), nilIfEmpty(want)) {
				t.Logf("seed %d: Compute = %+v, %v; want %+v", seed, m, err, want)
				return false
			}
			ss := NewStreamSegmenter(0, dom, "dom", mask)
			for _, ev := range evs {
				if err := ss.Feed(ev); err != nil {
					t.Logf("seed %d: StreamSegmenter: %v", seed, err)
					return false
				}
			}
			if got, err := ss.Finish(); err != nil || !reflect.DeepEqual(nilIfEmpty(got), nilIfEmpty(want)) {
				t.Logf("seed %d: StreamSegmenter = %+v, %v; want %+v", seed, got, err, want)
				return false
			}
			// The candidate set tracks every non-sync region at once.
			track := make([]bool, len(mask))
			for r := range track {
				track[r] = !mask[r]
			}
			cs := NewCandidateSet(0, track, mask, 0)
			for _, ev := range evs {
				cs.Feed(ev)
			}
			for r, tracked := range track {
				if !tracked {
					continue
				}
				want := refSegments(0, evs, trace.RegionID(r), mask)
				got, ok := cs.Segments(trace.RegionID(r))
				if !ok || !reflect.DeepEqual(nilIfEmpty(got), nilIfEmpty(want)) {
					t.Logf("seed %d region %d: CandidateSet = %+v, %v; want %+v", seed, r, got, ok, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidateStoreChunkEdges fills one tracked region with N segments,
// N on and around the store's chunk boundaries (chunk.MinLen records, its
// doublings, chunk.MaxLen), and checks that Segments rebuilds Compute's
// output field by field.
func TestCandidateStoreChunkEdges(t *testing.T) {
	const rank = 2
	for _, n := range []int{0, 1, chunk.MinLen - 1, chunk.MinLen, chunk.MinLen + 1, chunk.MaxLen + 1, 20000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tr := trace.New("edges", rank+1)
			dom := tr.AddRegion("dom", trace.ParadigmUser, trace.RoleFunction)
			mpi := tr.AddRegion("MPI_X", trace.ParadigmMPI, trace.RoleCollective)
			for i := 0; i < n; i++ {
				t0 := trace.Time(10 * i)
				tr.Append(rank, trace.Enter(t0, dom))
				tr.Append(rank, trace.Enter(t0+1, mpi))
				tr.Append(rank, trace.Leave(t0+2+trace.Time(i%3), mpi))
				tr.Append(rank, trace.Leave(t0+7, dom))
			}
			m, err := Compute(tr, dom, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := m.PerRank[rank]
			if len(want) != n {
				t.Fatalf("Compute: %d segments, want %d", len(want), n)
			}
			mask := SyncMask(tr.Regions, nil)
			// The second round refills chunks the first one released,
			// stale records and all; the first round's slice must not move.
			var first []Segment
			for round := 0; round < 2; round++ {
				cs := NewCandidateSet(rank, []bool{true, false}, mask, 0)
				for _, ev := range tr.Procs[rank].Events {
					if err := cs.Feed(ev); err != nil {
						t.Fatal(err)
					}
				}
				got, ok := cs.Segments(dom)
				if !ok || len(got) != n {
					t.Fatalf("round %d: Segments: %d segments, ok %t; want %d", round, len(got), ok, n)
				}
				cs.Release()
				if _, ok := cs.Segments(dom); ok {
					t.Fatalf("round %d: Segments after Release reports ok", round)
				}
				if round == 0 {
					first = got
				}
				for i, g := range got {
					w := want[i]
					t0 := trace.Time(10 * i)
					if w.Rank != rank || w.Index != i || w.Start != t0 || w.End != t0+7 || w.Sync != 1+trace.Duration(i%3) {
						t.Fatalf("Compute segment %d = %+v", i, w)
					}
					if g != w || first[i] != w {
						t.Fatalf("round %d: segment %d = %+v (first round %+v), want %+v", round, i, g, first[i], w)
					}
				}
			}
		})
	}
}

// TestCandidateEvictionTie floods the budget from two regions that tie
// on buffered records: the lower slot is evicted, and the survivor keeps
// every segment with contiguous indices.
func TestCandidateEvictionTie(t *testing.T) {
	const a, b = 0, 1
	const budget = 7
	mask := []bool{false, false}
	cs := NewCandidateSet(0, []bool{true, true}, mask, budget)
	now := trace.Time(0)
	invoke := func(r trace.RegionID) {
		for _, ev := range []trace.Event{trace.Enter(now, r), trace.Leave(now+1, r)} {
			if err := cs.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		now += 2
	}
	// a, b, …, a fills the budget; b's fourth record overflows it with
	// both regions at four.
	for i := 0; i < budget+1; i++ {
		invoke(trace.RegionID(i % 2))
	}
	if _, ok := cs.Segments(a); ok {
		t.Fatal("region a survived the tie; want the lower slot evicted")
	}
	// The survivor goes on buffering below the budget; a stays evicted.
	invoke(b)
	invoke(a)
	invoke(b)
	if _, ok := cs.Segments(a); ok {
		t.Fatal("evicted region a buffered again")
	}
	segs, ok := cs.Segments(b)
	if !ok || len(segs) != 6 {
		t.Fatalf("region b: %d segments, ok %t; want 6", len(segs), ok)
	}
	for i, s := range segs {
		if s.Index != i || s.End != s.Start+1 {
			t.Fatalf("region b segment %d = %+v", i, s)
		}
	}
}

func nilIfEmpty(s []Segment) []Segment {
	if len(s) == 0 {
		return nil
	}
	return s
}

// Property: 0 ≤ Sync ≤ Inclusive (hence 0 ≤ SOS ≤ Inclusive), segments are
// ordered and non-overlapping, and indices are consecutive.
func TestSegmentInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, dom := randomSegTrace(seed)
		m, err := Compute(tr, dom, nil)
		if err != nil {
			return false
		}
		prevEnd := trace.Time(-1)
		for i, seg := range m.PerRank[0] {
			if seg.Index != i {
				return false
			}
			if seg.Sync < 0 || seg.Sync > seg.Inclusive() {
				return false
			}
			if seg.SOS() < 0 || seg.SOS() > seg.Inclusive() {
				return false
			}
			if seg.Start < prevEnd {
				return false
			}
			prevEnd = seg.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a classifier that matches nothing, SOS equals inclusive
// time; with one that matches everything, SOS is the time outside any
// classified region.
func TestClassifierExtremesProperty(t *testing.T) {
	nothing := ParadigmSync{}
	f := func(seed int64) bool {
		tr, dom := randomSegTrace(seed)
		m, err := Compute(tr, dom, nothing)
		if err != nil {
			return false
		}
		for _, seg := range m.PerRank[0] {
			if seg.Sync != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// traceStream is tr.StreamRank counting the events it feeds.
func traceStream(tr *trace.Trace, fed *int) func(int, func(trace.Event) error) error {
	return func(rank int, fn func(trace.Event) error) error {
		return tr.StreamRank(rank, func(ev trace.Event) error {
			*fed++
			return fn(ev)
		})
	}
}

// breakdownOne is Breakdown of a single segment.
func breakdownOne(tr *trace.Trace, seg Segment) ([]BreakdownEntry, error) {
	var fed int
	out, err := Breakdown(tr.Regions, []Segment{seg}, traceStream(tr, &fed))
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestBreakdownFig3(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2, iteration 0: calc 1 step, MPI 5 steps, a itself 0.
	entries, err := breakdownOne(tr, m.PerRank[2][0])
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	var total int64
	for _, e := range entries {
		got[e.Name] = e.Exclusive / workloads.ToyStep
		total += e.Exclusive
	}
	if got["MPI"] != 5 || got["calc"] != 1 {
		t.Fatalf("breakdown = %v", got)
	}
	if total != m.PerRank[2][0].Inclusive() {
		t.Fatalf("breakdown total %d != inclusive %d", total, m.PerRank[2][0].Inclusive())
	}
	// Sorted descending: MPI first.
	if entries[0].Name != "MPI" {
		t.Fatalf("order: %+v", entries)
	}
	if entries[0].Share <= entries[1].Share {
		t.Fatalf("shares: %+v", entries)
	}
}

func TestBreakdownErrors(t *testing.T) {
	tr := workloads.Fig3Trace()
	if _, err := breakdownOne(tr, Segment{Rank: 99}); err == nil {
		t.Fatal("bad rank accepted")
	}
	var fed int
	if _, err := Breakdown(tr.Regions, []Segment{{Rank: 0}, {Rank: 1}}, traceStream(tr, &fed)); err == nil {
		t.Fatal("segments of two ranks accepted")
	}
	if fed != 0 {
		t.Fatalf("rejected call streamed %d events", fed)
	}
}

// TestBreakdownManySegmentsOneSweep: breaking several segments of one
// rank down in one sweep gives each segment's single-call entries, and
// the sweep stops once the last requested segment has ended.
func TestBreakdownManySegmentsOneSweep(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rank, segs := range m.PerRank {
		if len(segs) < 3 {
			t.Fatalf("rank %d: %d segments, want at least 3", rank, len(segs))
		}
		// Out of order and with a repeat, ending before the last segment.
		want := []Segment{segs[1], segs[0], segs[1]}
		var fed int
		got, err := Breakdown(tr.Regions, want, traceStream(tr, &fed))
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range want {
			one, err := breakdownOne(tr, seg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], one) {
				t.Errorf("rank %d segment %d: one sweep %+v, single call %+v", rank, seg.Index, got[i], one)
			}
		}
		if fed >= len(tr.Procs[rank].Events) {
			t.Errorf("rank %d: sweep fed all %d events, want a stop after segment 1", rank, fed)
		}
	}
}

// Property: breakdown entries always sum to the segment's inclusive
// time, and one sweep over all of a rank's segments matches one call per
// segment.
func TestBreakdownSumsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, dom := randomSegTrace(seed)
		m, err := Compute(tr, dom, nil)
		if err != nil {
			return false
		}
		var fed int
		all, err := Breakdown(tr.Regions, m.PerRank[0], traceStream(tr, &fed))
		if err != nil {
			return false
		}
		for i, seg := range m.PerRank[0] {
			entries, err := breakdownOne(tr, seg)
			if err != nil || !reflect.DeepEqual(entries, all[i]) {
				return false
			}
			var total trace.Duration
			for _, e := range entries {
				if e.Exclusive < 0 {
					return false
				}
				total += e.Exclusive
			}
			if total != seg.Inclusive() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignByTimeRectangular(t *testing.T) {
	// On the synchronized Fig3 matrix, time alignment equals index
	// alignment.
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := m.AlignByTime()
	if len(cols) != 3 {
		t.Fatalf("columns = %d, want 3", len(cols))
	}
	for i, col := range cols {
		if len(col.Segments) != 3 {
			t.Fatalf("column %d has %d segments", i, len(col.Segments))
		}
		for _, seg := range col.Segments {
			if seg.Index != i {
				t.Fatalf("column %d contains segment index %d", i, seg.Index)
			}
		}
	}
}

func TestAlignByTimeRagged(t *testing.T) {
	// Rank 0 (reference): segments [0,10) [10,20) [20,30).
	// Rank 1: one long segment [2,19) spanning anchors 0 and 1 (more
	// overlap with anchor 0: 8 vs 9)... overlap with [0,10) is 8, with
	// [10,20) is 9 → joins column 1; plus [22,28) joins column 2.
	m := &Matrix{PerRank: [][]Segment{
		{
			{Rank: 0, Index: 0, Start: 0, End: 10},
			{Rank: 0, Index: 1, Start: 10, End: 20},
			{Rank: 0, Index: 2, Start: 20, End: 30},
		},
		{
			{Rank: 1, Index: 0, Start: 2, End: 19},
			{Rank: 1, Index: 1, Start: 22, End: 28},
		},
	}}
	cols := m.AlignByTime()
	if len(cols) != 3 {
		t.Fatalf("columns = %d", len(cols))
	}
	if len(cols[0].Segments) != 1 {
		t.Fatalf("column 0: %+v", cols[0])
	}
	if len(cols[1].Segments) != 2 || cols[1].Segments[1].Rank != 1 {
		t.Fatalf("column 1: %+v", cols[1])
	}
	if len(cols[2].Segments) != 2 || cols[2].Segments[1].Index != 1 {
		t.Fatalf("column 2: %+v", cols[2])
	}
}

func TestAlignByTimeEdge(t *testing.T) {
	if cols := (&Matrix{}).AlignByTime(); cols != nil {
		t.Fatalf("empty matrix columns: %+v", cols)
	}
	empty := &Matrix{PerRank: [][]Segment{{}, {}}}
	if cols := empty.AlignByTime(); cols != nil {
		t.Fatalf("no-segment columns: %+v", cols)
	}
	// Non-overlapping segment is dropped.
	m := &Matrix{PerRank: [][]Segment{
		{{Rank: 0, Start: 0, End: 10}},
		{{Rank: 1, Start: 50, End: 60}},
	}}
	cols := m.AlignByTime()
	if len(cols) != 1 || len(cols[0].Segments) != 1 {
		t.Fatalf("columns: %+v", cols)
	}
}

// referenceRank recomputes AlignByTime's reference-rank choice: the rank
// with the most segments, ties to the lowest rank.
func referenceRank(m *Matrix) int {
	ref := -1
	for rank, segs := range m.PerRank {
		if ref < 0 || len(segs) > len(m.PerRank[ref]) {
			ref = rank
		}
	}
	return ref
}

// Property: every aligned segment overlaps its column's anchor, no rank
// appears twice in a column, and segments are sorted by rank.
func TestAlignByTimeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, dom := randomSegTrace(seed)
		m, err := Compute(tr, dom, nil)
		if err != nil {
			return false
		}
		cols := m.AlignByTime()
		ref := referenceRank(m)
		for _, col := range cols {
			if len(col.Segments) == 0 {
				return false
			}
			anchor := m.PerRank[ref][col.Reference]
			seen := map[trace.Rank]bool{}
			prev := trace.Rank(-1)
			for _, seg := range col.Segments {
				if seen[seg.Rank] {
					return false
				}
				seen[seg.Rank] = true
				if seg.Rank <= prev {
					return false
				}
				prev = seg.Rank
				if seg != anchor && overlap(seg, anchor) == 0 {
					return false
				}
			}
			if !seen[anchor.Rank] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (regression for map-iteration-order nondeterminism): two runs
// of AlignByTime over the same ragged matrix produce identical output.
func TestAlignByTimeDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a ragged matrix directly: uneven per-rank segment counts
		// with jittered, overlapping windows so several segments of one
		// rank compete for several anchors.
		nranks := 2 + rng.Intn(6)
		m := &Matrix{PerRank: make([][]Segment, nranks)}
		for rank := 0; rank < nranks; rank++ {
			n := 1 + rng.Intn(8)
			var t0 int64
			for i := 0; i < n; i++ {
				start := t0 + int64(rng.Intn(5))
				end := start + 1 + int64(rng.Intn(20))
				m.PerRank[rank] = append(m.PerRank[rank], Segment{
					Rank: trace.Rank(rank), Index: i, Start: start, End: end,
				})
				t0 = end
			}
		}
		a, b := m.AlignByTime(), m.AlignByTime()
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignByTimeOnePerRank(t *testing.T) {
	// Two short rank-1 segments inside one anchor: only the bigger one is
	// kept, honoring the at-most-one-per-rank guarantee. Rank 0 has the
	// most segments and therefore anchors the columns.
	m := &Matrix{PerRank: [][]Segment{
		{
			{Rank: 0, Index: 0, Start: 0, End: 10},
			{Rank: 0, Index: 1, Start: 10, End: 20},
			{Rank: 0, Index: 2, Start: 20, End: 30},
		},
		{
			{Rank: 1, Index: 0, Start: 1, End: 3},
			{Rank: 1, Index: 1, Start: 4, End: 9},
			{Rank: 1, Index: 2, Start: 11, End: 19},
		},
	}}
	cols := m.AlignByTime()
	if len(cols) != 3 {
		t.Fatalf("columns: %+v", cols)
	}
	if len(cols[0].Segments) != 2 {
		t.Fatalf("column 0: %+v", cols[0])
	}
	kept := cols[0].Segments[1]
	if kept.Rank != 1 || kept.Index != 1 {
		t.Fatalf("kept segment: %+v (want the larger overlap)", kept)
	}
	if len(cols[1].Segments) != 2 || cols[1].Segments[1].Index != 2 {
		t.Fatalf("column 1: %+v", cols[1])
	}
	if len(cols[2].Segments) != 1 {
		t.Fatalf("column 2: %+v", cols[2])
	}
}

// TestComputeRejectsSyncRegion: segmenting at a region the classifier
// itself counts as synchronization must fail loudly instead of silently
// yielding SOS ≡ 0 everywhere.
func TestComputeRejectsSyncRegion(t *testing.T) {
	tr := trace.New("sync-dom", 2)
	allred := tr.AddRegion("MPI_Allreduce", trace.ParadigmMPI, trace.RoleCollective)
	for rank := trace.Rank(0); rank < 2; rank++ {
		for i := int64(0); i < 8; i++ {
			tr.Append(rank, trace.Enter(i*10, allred))
			tr.Append(rank, trace.Leave(i*10+5, allred))
		}
	}
	// Default classifier: MPI paradigm is sync.
	if _, err := Compute(tr, allred, nil); !errors.Is(err, ErrSyncRegion) {
		t.Fatalf("Compute(default classifier) error = %v, want ErrSyncRegion", err)
	}
	// Name-based classifier (the IncludeSync-style footgun from the
	// issue): "MPI_" prefix classifies the region itself.
	if _, err := Compute(tr, allred, NameSync{"MPI_"}); !errors.Is(err, ErrSyncRegion) {
		t.Fatalf("Compute(NameSync) error = %v, want ErrSyncRegion", err)
	}
	// A classifier that does not cover the region keeps working.
	if _, err := Compute(tr, allred, NameSync{"omp_"}); err != nil {
		t.Fatalf("Compute(non-matching classifier) error = %v", err)
	}
}
