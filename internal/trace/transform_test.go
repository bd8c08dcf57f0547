package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func windowFixture() *Trace {
	tr := New("w", 2)
	main := tr.AddRegion("main", ParadigmUser, RoleFunction)
	f := tr.AddRegion("f", ParadigmUser, RoleFunction)
	cyc := tr.AddMetric("cyc", "c", MetricAccumulated)
	for rank := Rank(0); rank < 2; rank++ {
		tr.Append(rank, Enter(0, main))
		tr.Append(rank, Sample(0, cyc, 10))
		tr.Append(rank, Enter(10, f))
		tr.Append(rank, Sample(15, cyc, 50))
		tr.Append(rank, Leave(20, f))
		tr.Append(rank, Enter(30, f))
		tr.Append(rank, Leave(40, f))
		tr.Append(rank, Send(45, 1-rank, 1, 8))
		tr.Append(rank, Recv(46, 1-rank, 1, 8))
		tr.Append(rank, Leave(50, main))
	}
	return tr
}

func TestWindowBalancesClippedRegions(t *testing.T) {
	tr := windowFixture()
	w := tr.Window(12, 35)
	if err := w.Validate(); err != nil {
		t.Fatalf("windowed trace invalid: %v", err)
	}
	// At t=12, main and f are open: both must be re-entered at 12.
	evs := w.Procs[0].Events
	if evs[0].Kind != KindEnter || evs[0].Time != 12 {
		t.Fatalf("first event: %+v", evs[0])
	}
	// main still open at 35 → closed at 35; f (second invocation) open → closed too.
	last := evs[len(evs)-1]
	if last.Kind != KindLeave || last.Time != 35 {
		t.Fatalf("last event: %+v", last)
	}
	first, lastT := w.Span()
	if first < 12 || lastT > 35 {
		t.Fatalf("span (%d,%d) outside window", first, lastT)
	}
}

func TestWindowCarriesMetricValue(t *testing.T) {
	tr := windowFixture()
	w := tr.Window(12, 35)
	cyc, _ := w.MetricByName("cyc")
	times, values := w.MetricSamplesRank(0, cyc.ID)
	// Carry-in sample at 12 with value 10, then the real sample at 15.
	if len(times) != 2 || times[0] != 12 || values[0] != 10 {
		t.Fatalf("samples: times=%v values=%v", times, values)
	}
	if times[1] != 15 || values[1] != 50 {
		t.Fatalf("in-window sample: times=%v values=%v", times, values)
	}
}

func TestWindowReversedBounds(t *testing.T) {
	tr := windowFixture()
	w := tr.Window(35, 12) // swapped
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.NumEvents() == 0 {
		t.Fatal("reversed bounds produced empty trace")
	}
}

func TestWindowEmptyInterior(t *testing.T) {
	tr := windowFixture()
	// [22, 28] contains no events but main is open across it.
	w := tr.Window(22, 28)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	evs := w.Procs[0].Events
	// Expect: Enter(main)@22, Sample(cyc)@22, Leave(main)@28.
	if len(evs) != 3 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Kind != KindEnter || evs[2].Kind != KindLeave {
		t.Fatalf("clip events: %+v", evs)
	}
}

func TestWindowOutsideRun(t *testing.T) {
	tr := windowFixture()
	w := tr.Window(100, 200)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything closed before 100: only carry-in metric samples remain.
	for rank := range w.Procs {
		for _, ev := range w.Procs[rank].Events {
			if ev.Kind != KindMetric {
				t.Fatalf("rank %d unexpected event %+v", rank, ev)
			}
		}
	}
}

func TestFilterRanks(t *testing.T) {
	tr := windowFixture()
	sub := tr.FilterRanks([]Rank{1})
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NumRanks() != 1 {
		t.Fatalf("ranks = %d", sub.NumRanks())
	}
	if sub.Procs[0].Proc.Name != "Process 1" {
		t.Fatalf("name = %q", sub.Procs[0].Proc.Name)
	}
	// Send/Recv with the excluded peer are dropped.
	for _, ev := range sub.Procs[0].Events {
		if ev.Kind == KindSend || ev.Kind == KindRecv {
			t.Fatalf("message event with dropped peer survived: %+v", ev)
		}
	}
	// Keeping both ranks (reordered) remaps peers.
	both := tr.FilterRanks([]Rank{1, 0})
	if err := both.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range both.Procs[0].Events {
		if ev.Kind == KindSend && ev.Peer != 1 {
			t.Fatalf("peer not remapped: %+v", ev)
		}
	}
}

// TestWindowDeterministic: the carry-in samples follow MetricID order,
// so repeated windows of the same trace encode to the same bytes.
func TestWindowDeterministic(t *testing.T) {
	tr := New("metrics", 1)
	main := tr.AddRegion("main", ParadigmUser, RoleFunction)
	tr.Append(0, Enter(0, main))
	for i := 0; i < 8; i++ {
		id := tr.AddMetric(fmt.Sprintf("m%d", i), "#", MetricAbsolute)
		tr.Append(0, Sample(Time(1+i), id, float64(i)))
	}
	tr.Append(0, Leave(30, main))
	var want bytes.Buffer
	if err := Write(&want, tr.Window(10, 20)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var got bytes.Buffer
		if err := Write(&got, tr.Window(10, 20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("window %d encodes differently from the first", i)
		}
	}
}

// TestWindowStreamsStopsPastEnd: each rank is read only up to its first
// event past the window end.
func TestWindowStreamsStopsPastEnd(t *testing.T) {
	tr := windowFixture()
	fed := 0
	w, err := WindowStreams(tr.Header(), 12, 35, func(rank int, fn func(Event) error) error {
		return tr.StreamRank(rank, func(ev Event) error {
			fed++
			return fn(ev)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seven events up to Leave(f)@40, the first past 35, on each rank.
	if fed != 2*7 {
		t.Fatalf("fed %d events, want %d", fed, 2*7)
	}
	if !reflect.DeepEqual(w, tr.Window(12, 35)) {
		t.Fatal("WindowStreams differs from Window")
	}
}

// Property: Window always yields a valid trace whose span lies inside the
// window, for random traces and random windows.
func TestWindowAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		if tr.Validate() != nil {
			// randomTrace may emit decreasing accumulated metrics; Window
			// preserves samples verbatim, so only valid inputs are in scope.
			return true
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		_, last := tr.Span()
		if last == 0 {
			last = 1
		}
		from := Time(rng.Int63n(last + 1))
		to := from + Time(rng.Int63n(last+1))
		w := tr.Window(from, to)
		if err := w.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if w.NumEvents() > 0 {
			f2, l2 := w.Span()
			if f2 < from || l2 > to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FilterRanks of all ranks (identity order) preserves event
// counts and validity.
func TestFilterRanksIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		if tr.Validate() != nil {
			return true // only valid inputs are in scope
		}
		all := make([]Rank, tr.NumRanks())
		for i := range all {
			all[i] = Rank(i)
		}
		sub := tr.FilterRanks(all)
		if sub.Validate() != nil {
			return false
		}
		return sub.NumEvents() == tr.NumEvents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	a := windowFixture()
	b := windowFixture()
	out, err := Concat(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != a.NumEvents()+b.NumEvents() {
		t.Fatalf("events = %d, want %d", out.NumEvents(), a.NumEvents()+b.NumEvents())
	}
	// Same definitions merged by name: no duplicates.
	if len(out.Regions) != len(a.Regions) || len(out.Metrics) != len(a.Metrics) {
		t.Fatalf("defs: %d regions %d metrics", len(out.Regions), len(out.Metrics))
	}
	// b starts 100ns after a ends.
	_, aLast := a.Span()
	evs := out.Procs[0].Events
	second := evs[len(a.Procs[0].Events):]
	if second[0].Time != aLast+100 {
		t.Fatalf("second phase starts at %d, want %d", second[0].Time, aLast+100)
	}
}

func TestConcatMergesNewDefinitions(t *testing.T) {
	a := windowFixture()
	b := New("phase2", 2)
	g := b.AddRegion("gpu_kernel", ParadigmUser, RoleFunction)
	for rank := Rank(0); rank < 2; rank++ {
		b.Append(rank, Enter(0, g))
		b.Append(rank, Leave(10, g))
	}
	out, err := Concat(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	merged, ok := out.RegionByName("gpu_kernel")
	if !ok {
		t.Fatal("new region not merged")
	}
	// The appended events reference the remapped ID.
	last := out.Procs[0].Events[len(out.Procs[0].Events)-1]
	if last.Region != merged.ID {
		t.Fatalf("remap failed: %+v vs %d", last, merged.ID)
	}
}

func TestConcatRankMismatch(t *testing.T) {
	if _, err := Concat(New("a", 2), New("b", 3), 0); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestConcatRebasesAccumulatedCounters(t *testing.T) {
	a := windowFixture()
	b := windowFixture()
	out, err := Concat(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := out.MetricByName("cyc")
	_, values := out.MetricSamplesRank(0, cyc.ID)
	// Phase a ends at 50; phase b's samples (10, 50) become (60, 100).
	want := []float64{10, 50, 60, 100}
	if len(values) != len(want) {
		t.Fatalf("values = %v", values)
	}
	for i := range want {
		if values[i] != want[i] {
			t.Fatalf("values = %v, want %v", values, want)
		}
	}
}

func TestTransform(t *testing.T) {
	tr := validTwoRankTrace()
	// Drop every metric sample, keep everything else.
	out := tr.Transform(func(rank Rank, events []Event) []Event {
		kept := make([]Event, 0, len(events))
		for _, ev := range events {
			if ev.Kind != KindMetric {
				kept = append(kept, ev)
			}
		}
		return kept
	})
	if out == tr {
		t.Fatal("Transform returned its receiver")
	}
	if len(out.Regions) != len(tr.Regions) || len(out.Metrics) != len(tr.Metrics) {
		t.Fatal("definitions not carried over")
	}
	if out.NumRanks() != tr.NumRanks() {
		t.Fatalf("rank count changed: %d -> %d", tr.NumRanks(), out.NumRanks())
	}
	for rank := range out.Procs {
		for _, ev := range out.Procs[rank].Events {
			if ev.Kind == KindMetric {
				t.Fatal("metric event survived the transform")
			}
		}
		if out.Procs[rank].Proc.Name != tr.Procs[rank].Proc.Name {
			t.Fatal("proc metadata not carried over")
		}
	}
	// The input must be untouched.
	metrics := 0
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			if ev.Kind == KindMetric {
				metrics++
			}
		}
	}
	if metrics == 0 {
		t.Fatal("Transform mutated its input")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("transformed trace invalid: %v", err)
	}
}

func TestCheckCollectsAllIssues(t *testing.T) {
	tr := New("multi", 1)
	f := tr.AddRegion("f", ParadigmUser, RoleFunction)
	tr.Append(0, Enter(0, f))
	tr.Append(0, Send(5, 9, 1, -3)) // undefined peer AND negative size
	tr.Append(0, Enter(3, f))       // backward timestamp
	// f left open twice -> unclosed at stream end.
	issues := tr.Check()
	want := []IssueCode{IssueUndefinedPeer, IssueNegativeBytes, IssueUnsorted, IssueUnclosedRegion}
	if len(issues) != len(want) {
		t.Fatalf("got %d issues %v, want %d", len(issues), issues, len(want))
	}
	for i, code := range want {
		if issues[i].Code != code {
			t.Fatalf("issue %d = %s, want %s", i, issues[i].Code, code)
		}
	}
	// Validate reports only the first, with ErrInvalid semantics.
	err := tr.Validate()
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate = %v, want ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), "undefined peer rank 9") {
		t.Fatalf("Validate error = %v, want first Check issue", err)
	}
}
