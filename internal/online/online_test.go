package online

import (
	"errors"
	"testing"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func fd4Fixture(t *testing.T) (*trace.Trace, workloads.FD4Config, trace.RegionID) {
	t.Helper()
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 24
	cfg.Iterations = 10
	cfg.InterruptRank = 7
	cfg.InterruptIteration = 6
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tr.RegionByName("iteration")
	if !ok {
		t.Fatal("iteration region missing")
	}
	return tr, cfg, r.ID
}

func TestOnlineDetectsInterruption(t *testing.T) {
	tr, cfg, dom := fd4Fixture(t)
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts for interrupted run")
	}
	found := false
	for _, al := range alerts {
		if al.Segment.Rank == trace.Rank(cfg.InterruptRank) && al.Segment.Index == cfg.InterruptIteration {
			found = true
			// The alert fires long before the run ends.
			if al.SeenSegments >= a.SeenSegments() {
				t.Errorf("alert only at the very end: seen %d of %d", al.SeenSegments, a.SeenSegments())
			}
		}
	}
	if !found {
		t.Fatalf("interrupted segment not alerted: %+v", alerts)
	}
	if a.SeenSegments() != cfg.Ranks*cfg.Iterations {
		t.Fatalf("seen %d segments, want %d", a.SeenSegments(), cfg.Ranks*cfg.Iterations)
	}
}

func TestOnlineQuietOnBalancedRun(t *testing.T) {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 16
	cfg.Iterations = 8
	cfg.InterruptRank = 3
	cfg.InterruptDuration = 0 // clean run
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tr.RegionByName("iteration")
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: r.ID}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts on balanced run: %+v", alerts)
	}
}

func TestOnlineMatchesOfflineSegments(t *testing.T) {
	// The streaming detector must observe exactly the offline segment
	// matrix (same starts, ends, sync times), each segment once.
	tr, _, dom := fd4Fixture(t)
	m, err := segment.Compute(tr, dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []segment.Segment
	a, err := Config{
		Ranks:     tr.NumRanks(),
		Regions:   tr.Regions,
		Dominant:  dom,
		OnSegment: func(seg segment.Segment, _ float64, _, _ bool) { got = append(got, seg) },
	}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	if len(got) != m.TotalSegments() || a.SeenSegments() != len(got) {
		t.Fatalf("streamed %d segments (seen %d), offline %d", len(got), a.SeenSegments(), m.TotalSegments())
	}
	seen := make(map[[2]int]bool)
	for _, seg := range got {
		key := [2]int{int(seg.Rank), seg.Index}
		if seen[key] {
			t.Fatalf("segment observed twice: %+v", seg)
		}
		seen[key] = true
		if want := m.PerRank[seg.Rank][seg.Index]; seg != want {
			t.Fatalf("segment mismatch: streamed %+v offline %+v", seg, want)
		}
	}
}

func TestOnlineAgreesWithOfflineHotspot(t *testing.T) {
	tr, cfg, dom := fd4Fixture(t)
	m, err := segment.Compute(tr, dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := imbalance.Analyze(m, imbalance.Options{})
	a, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The offline top hotspot must be among the online alerts.
	top := off.Hotspots[0].Segment
	found := false
	for _, al := range alerts {
		if al.Segment.Rank == top.Rank && al.Segment.Index == top.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("offline top hotspot (rank %d idx %d) missed online", top.Rank, top.Index)
	}
	_ = cfg
}

func TestOnlineErrors(t *testing.T) {
	regions := []trace.Region{
		{ID: 0, Name: "f", Paradigm: trace.ParadigmUser},
		{ID: 1, Name: "g", Paradigm: trace.ParadigmUser},
		{ID: 2, Name: "MPI_Barrier", Paradigm: trace.ParadigmMPI},
	}
	if _, err := (Config{Ranks: 0, Regions: regions}).NewAnalyzer(); err == nil {
		t.Error("nranks=0 accepted")
	}
	if _, err := (Config{Ranks: 2, Regions: regions, Dominant: 5}).NewAnalyzer(); err == nil {
		t.Error("undefined dominant accepted")
	}
	if _, err := (Config{Ranks: 2, Regions: regions, Dominant: 2}).NewAnalyzer(); !errors.Is(err, segment.ErrSyncRegion) {
		t.Errorf("sync-classified dominant: err = %v, want ErrSyncRegion", err)
	}
	a, err := Config{Ranks: 1, Regions: regions}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(9, trace.Enter(0, 0)); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := a.Feed(0, trace.Enter(5, 3)); err == nil {
		t.Error("undefined region accepted")
	}
	if _, err := a.Feed(0, trace.Enter(5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(0, trace.Enter(2, 0)); err == nil {
		t.Error("time travel accepted")
	}
	// The kernel names regions and counts only the events it accepted:
	// the time-travelling enter above is not event 1.
	if _, err := a.Feed(0, trace.Leave(6, 1)); err == nil || err.Error() != `segment: rank 0 event 1: leave of "g" while "f" is open` {
		t.Errorf("leave of a region that is not open: err = %v", err)
	}
	if _, err := a.Feed(0, trace.Leave(6, 0)); err != nil {
		t.Fatal(err)
	}
	// Extra leave of the dominant region.
	if _, err := a.Feed(0, trace.Leave(7, 0)); err == nil {
		t.Error("unbalanced leave accepted")
	}
	if a.SeenSegments() != 1 {
		t.Errorf("seen %d segments, want 1", a.SeenSegments())
	}
}

// TestOnlineOpenInvocationCap pins the analyzer-wide bound on open
// invocations: ranks that each stay within the kernel's depth limit
// cannot together grow the analyzer's stacks without bound.
func TestOnlineOpenInvocationCap(t *testing.T) {
	defer func(n int) { maxOpenInvocations = n }(maxOpenInvocations)
	maxOpenInvocations = 3
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 2, Regions: regions}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []trace.Rank{0, 0, 1} {
		if _, err := a.Feed(rank, trace.Enter(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	want := "online: rank 1: more than 3 invocations open across all ranks"
	if _, err := a.Feed(1, trace.Enter(2, 0)); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// A leave frees a slot for the next enter.
	if _, err := a.Feed(1, trace.Leave(3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(1, trace.Enter(4, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineWarmupSuppressesEarlyAlerts(t *testing.T) {
	// Two ranks, the very first segment is huge: without warmup it would
	// alert; with warmup it must not (no baseline yet).
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: Options{Warmup: 10}}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feedSegment := func(d trace.Duration) *Alert {
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		var alert *Alert
		alert, err = a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return alert
	}
	if al := feedSegment(1_000_000_000); al != nil {
		t.Fatal("alert during warmup")
	}
	for i := 0; i < 15; i++ {
		if al := feedSegment(1000); al != nil {
			t.Fatalf("alert for normal segment %d", i)
		}
	}
	if al := feedSegment(1_000_000); al == nil {
		t.Fatal("post-warmup outlier not alerted")
	}
}

func TestReservoirReplacement(t *testing.T) {
	// A tiny reservoir forces algorithm-R replacements; detection must
	// still work afterwards.
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: Options{Warmup: 4, ReservoirSize: 8}}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	var last *Alert
	for i := 0; i < 200; i++ {
		d := trace.Duration(1000 + i%7)
		if i == 150 {
			d = 1_000_000
		}
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		if al != nil {
			last = al
		}
	}
	if last == nil || last.SeenSegments != 151 {
		t.Fatalf("outlier not detected after reservoir churn: %+v", last)
	}
	if len(a.Alerts()) == 0 || a.Alerts()[0].Segment.Index != 150 {
		t.Fatalf("Alerts() = %+v", a.Alerts())
	}
}

// TestConfigNewAnalyzer pins the Config construction path: by-ID and
// by-name selection must build equivalent analyzers, name takes
// precedence over ID, and unknown names or bad ranks fail.
func TestConfigNewAnalyzer(t *testing.T) {
	tr, _, dom := fd4Fixture(t)

	byID, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := byID.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := byName.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) || len(a1) == 0 {
		t.Fatalf("by-ID and by-name analyzers disagree: %d vs %d alerts", len(a1), len(a2))
	}

	// Name wins over a (bogus) ID when both are set.
	mixed, err := Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: -42, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}

	if _, err := (Config{Ranks: tr.NumRanks(), Regions: tr.Regions, DominantName: "nope"}).NewAnalyzer(); err == nil {
		t.Fatal("unknown DominantName accepted")
	}
	if _, err := (Config{Ranks: 0, Regions: tr.Regions, Dominant: dom}).NewAnalyzer(); err == nil {
		t.Fatal("zero Ranks accepted")
	}
	if _, err := (Config{Ranks: 4, Regions: tr.Regions, Dominant: trace.RegionID(len(tr.Regions))}).NewAnalyzer(); err == nil {
		t.Fatal("out-of-range Dominant accepted")
	}
}

// feedUniformThenCandidate drives one rank through n identical segments
// (building a zero-MAD baseline) and then one candidate segment of the
// given duration, returning the candidate's alert (or nil).
func feedUniformThenCandidate(t *testing.T, opts Options, n int, base, candidate trace.Duration) *Alert {
	t.Helper()
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	a, err := Config{Ranks: 1, Regions: regions, Options: opts}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feed := func(d trace.Duration) *Alert {
		if _, err := a.Feed(0, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(0, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return al
	}
	for i := 0; i < n; i++ {
		if al := feed(base); al != nil {
			t.Fatalf("baseline segment %d alerted: %+v", i, al)
		}
	}
	return feed(candidate)
}

// TestMinRelDeviationSemantics pins the three behaviors of the pointer
// redesign. A uniform baseline has MAD 0, so any excess over the median
// scores z = +Inf — the alert decision then rests entirely on the
// relative-deviation gate, which makes the three settings observable:
// nil keeps the 5 % default, RelDeviation(0) demands any excess at all
// (the value the old sentinel encoding could not express), and a
// negative value disables the gate.
func TestMinRelDeviationSemantics(t *testing.T) {
	const n, base = 40, 1000
	small := trace.Duration(base * 101 / 100) // +1 %: below the 5 % default
	large := trace.Duration(base * 110 / 100) // +10 %: above it

	cases := []struct {
		name          string
		minRel        *float64
		alertsAtSmall bool
		alertsAtLarge bool
	}{
		{"nil applies the 5% default", nil, false, true},
		{"explicit zero alerts on any excess", RelDeviation(0), true, true},
		{"negative disables the gate", RelDeviation(-1), true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Warmup: 4, MinRelDeviation: tc.minRel}
			if got := feedUniformThenCandidate(t, opts, n, base, small) != nil; got != tc.alertsAtSmall {
				t.Errorf("+1%% candidate: alerted=%v, want %v", got, tc.alertsAtSmall)
			}
			if got := feedUniformThenCandidate(t, opts, n, base, large) != nil; got != tc.alertsAtLarge {
				t.Errorf("+10%% candidate: alerted=%v, want %v", got, tc.alertsAtLarge)
			}
		})
	}
}

// TestOnSegmentHook pins the per-segment observer: every completion is
// observed exactly once, warmup completions arrive unscored, and the
// alerted flag matches what Feed returns.
func TestOnSegmentHook(t *testing.T) {
	regions := []trace.Region{{ID: 0, Name: "f", Paradigm: trace.ParadigmUser}}
	type obs struct {
		seg             segment.Segment
		scored, alerted bool
	}
	var seen []obs
	a, err := Config{
		Ranks:   2,
		Regions: regions,
		Options: Options{Warmup: 6},
		OnSegment: func(seg segment.Segment, z float64, scored, alerted bool) {
			seen = append(seen, obs{seg, scored, alerted})
		},
	}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	now := trace.Time(0)
	feed := func(rank trace.Rank, d trace.Duration) *Alert {
		if _, err := a.Feed(rank, trace.Enter(now, 0)); err != nil {
			t.Fatal(err)
		}
		now += d
		al, err := a.Feed(rank, trace.Leave(now, 0))
		if err != nil {
			t.Fatal(err)
		}
		return al
	}
	alerted := 0
	for i := 0; i < 20; i++ {
		d := trace.Duration(1000 + i%5)
		if i == 15 {
			d = 1_000_000
		}
		if al := feed(trace.Rank(i%2), d); al != nil {
			alerted++
			if !seen[len(seen)-1].alerted {
				t.Fatalf("completion %d: Feed alerted but hook says not", i)
			}
		} else if seen[len(seen)-1].alerted {
			t.Fatalf("completion %d: hook alerted but Feed did not", i)
		}
	}
	if len(seen) != a.SeenSegments() || len(seen) != 20 {
		t.Fatalf("hook observed %d completions, analyzer saw %d", len(seen), a.SeenSegments())
	}
	if alerted == 0 {
		t.Fatal("outlier never alerted")
	}
	for i, o := range seen {
		if wantScored := i >= 6; o.scored != wantScored {
			t.Fatalf("completion %d: scored=%v, want %v", i, o.scored, wantScored)
		}
	}
}
