package callstack

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// fig1Trace reproduces the paper's Figure 1: foo enters at t=0, calls bar
// from t=2 to t=4, and leaves at t=6. Inclusive time of foo is 6,
// exclusive time is 4.
func fig1Trace() (*trace.Trace, trace.RegionID, trace.RegionID) {
	tr := trace.New("fig1", 1)
	foo := tr.AddRegion("foo", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("bar", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, foo))
	tr.Append(0, trace.Enter(2, bar))
	tr.Append(0, trace.Leave(4, bar))
	tr.Append(0, trace.Leave(6, foo))
	return tr, foo, bar
}

func TestFig1InclusiveExclusive(t *testing.T) {
	tr, foo, bar := fig1Trace()
	p, err := ProfileOf(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regions[foo].SumInclusive; got != 6 {
		t.Errorf("foo inclusive = %d, want 6 (paper Fig. 1)", got)
	}
	if got := p.Regions[foo].SumExclusive; got != 4 {
		t.Errorf("foo exclusive = %d, want 4 (paper Fig. 1)", got)
	}
	if got := p.Regions[bar].SumInclusive; got != 2 {
		t.Errorf("bar inclusive = %d, want 2", got)
	}
	if got := p.Regions[bar].SumExclusive; got != 2 {
		t.Errorf("bar exclusive = %d, want 2", got)
	}
	tree, err := CallTreeOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := tree.Find("foo", "bar"); n == nil || len(tree.Roots) != 1 {
		t.Errorf("call tree: bar is not foo's only child")
	}
}

// replayEvents feeds events through one StreamReplay of a trace with
// nregions regions and finishes it, returning the first error.
func replayEvents(nregions int, events []trace.Event) error {
	rep := NewStreamReplay(0, nregions)
	for _, ev := range events {
		if err := rep.Feed(ev); err != nil {
			return err
		}
	}
	return rep.Finish()
}

func TestReplayErrors(t *testing.T) {
	const f, g = trace.RegionID(0), trace.RegionID(1)
	for _, tc := range []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"leave without enter", []trace.Event{trace.Leave(1, f)}, "rank 0 event 0: leave without enter"},
		{"mismatched leave", []trace.Event{trace.Enter(0, f), trace.Leave(1, g)}, "rank 0 event 1: leave region 1 while inside 0"},
		{"unclosed", []trace.Event{trace.Enter(0, f)}, "rank 0: 1 unclosed invocations"},
		{"leave before enter", []trace.Event{
			{Time: 5, Kind: trace.KindEnter, Region: f},
			{Time: 3, Kind: trace.KindLeave, Region: f},
		}, "rank 0 event 1: leave at 3 before enter at 5"},
		{"undefined region", []trace.Event{trace.Enter(0, f), trace.Enter(1, 99)}, "rank 0 event 1: undefined region 99"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := replayEvents(2, tc.events)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestRecursionFlag(t *testing.T) {
	tr := trace.New("rec", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)
	// f(0..10){ g(1..9){ f(2..8) } }
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Enter(1, g))
	tr.Append(0, trace.Enter(2, f))
	tr.Append(0, trace.Leave(8, f))
	tr.Append(0, trace.Leave(9, g))
	tr.Append(0, trace.Leave(10, f))
	p, err := ProfileOf(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// f: outer 10 counted, inner 6 skipped (recursive).
	if got := p.Regions[f].SumInclusive; got != 10 {
		t.Errorf("f SumInclusive = %d, want 10", got)
	}
	if got := p.Regions[f].Count; got != 2 {
		t.Errorf("f Count = %d, want 2", got)
	}
	// f exclusive: outer 10-8=2, inner 6; g exclusive: 8-6=2.
	if got := p.Regions[f].SumExclusive; got != 8 {
		t.Errorf("f SumExclusive = %d, want 8", got)
	}
	if got := p.Regions[g].SumExclusive; got != 2 {
		t.Errorf("g SumExclusive = %d, want 2", got)
	}
	// The recursive invocation still counts toward the extremes.
	if got := p.Regions[f].MinInclusive; got != 6 {
		t.Errorf("f MinInclusive = %d, want 6", got)
	}
}

func TestBuildProfile(t *testing.T) {
	tr := trace.New("p", 2)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)
	unused := tr.AddRegion("unused", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < 2; rank++ {
		tr.Append(rank, trace.Enter(0, f))
		tr.Append(rank, trace.Enter(1, g))
		tr.Append(rank, trace.Leave(3, g))
		tr.Append(rank, trace.Leave(10, f))
	}
	p, err := ProfileOf(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Regions[f].Count != 2 || p.Regions[f].SumInclusive != 20 || p.Regions[f].SumExclusive != 16 {
		t.Fatalf("f profile: %+v", p.Regions[f])
	}
	if p.Regions[g].Count != 2 || p.Regions[g].SumInclusive != 4 || p.Regions[g].Ranks != 2 {
		t.Fatalf("g profile: %+v", p.Regions[g])
	}
	if p.Regions[g].MinInclusive != 2 || p.Regions[g].MaxInclusive != 2 {
		t.Fatalf("g min/max: %+v", p.Regions[g])
	}
	if p.Regions[unused].Count != 0 || p.Regions[unused].MinInclusive != 0 {
		t.Fatalf("unused profile: %+v", p.Regions[unused])
	}
	if p.TotalTime != 20 {
		t.Fatalf("TotalTime = %d, want 20", p.TotalTime)
	}
}

// buildRandomNested generates a random properly nested stream and returns
// the trace; used by the invariants property test.
func buildRandomNested(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder("rnd", 1)
	var regs []trace.RegionID
	for i := 0; i < 1+rng.Intn(6); i++ {
		regs = append(regs, b.Region(string(rune('a'+i)), trace.ParadigmUser, trace.RoleFunction))
	}
	now := trace.Time(0)
	var stack []trace.RegionID
	for step := 0; step < 10+rng.Intn(100); step++ {
		now += trace.Time(1 + rng.Intn(50))
		if rng.Intn(2) == 0 || len(stack) == 0 {
			r := regs[rng.Intn(len(regs))]
			b.Enter(0, now, r)
			stack = append(stack, r)
		} else {
			b.Leave(0, now, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}
	for len(stack) > 0 {
		now += trace.Time(1 + rng.Intn(50))
		b.Leave(0, now, stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	return b.Trace()
}

// refInv is one invocation of the recursive-descent reference replay.
type refInv struct {
	region       trace.RegionID
	enter, leave trace.Time
	children     []*refInv
}

// parseRef parses the properly nested invocations starting at events[i]
// by recursive descent, returning them and the index after the last one.
func parseRef(events []trace.Event, i int) ([]*refInv, int) {
	var out []*refInv
	for i < len(events) && events[i].Kind == trace.KindEnter {
		inv := &refInv{region: events[i].Region, enter: events[i].Time}
		inv.children, i = parseRef(events, i+1)
		inv.leave = events[i].Time // the matching leave
		i++
		out = append(out, inv)
	}
	return out, i
}

// refProfile computes the flat profile and the call-path aggregates of a
// one-rank trace from its reference invocation tree.
func refProfile(tr *trace.Trace) (*Profile, map[string][3]trace.Duration) {
	roots, _ := parseRef(tr.Procs[0].Events, 0)
	p := &Profile{Regions: make([]RegionProfile, len(tr.Regions))}
	for id := range p.Regions {
		p.Regions[id].Region = trace.RegionID(id)
	}
	paths := map[string][3]trace.Duration{} // count, inclusive, exclusive
	var walk func(invs []*refInv, path string, open map[trace.RegionID]bool)
	walk = func(invs []*refInv, path string, open map[trace.RegionID]bool) {
		for _, inv := range invs {
			incl := inv.leave - inv.enter
			excl := incl
			for _, c := range inv.children {
				excl -= c.leave - c.enter
			}
			rp := &p.Regions[inv.region]
			if rp.Count == 0 || incl < rp.MinInclusive {
				rp.MinInclusive = incl
			}
			rp.Count++
			rp.Ranks = 1
			if !open[inv.region] {
				rp.SumInclusive += incl
			}
			rp.SumExclusive += excl
			rp.MaxInclusive = max(rp.MaxInclusive, incl)
			name := path + "/" + tr.Region(inv.region).Name
			agg := paths[name]
			paths[name] = [3]trace.Duration{agg[0] + 1, agg[1] + incl, agg[2] + excl}
			wasOpen := open[inv.region]
			open[inv.region] = true
			walk(inv.children, name, open)
			open[inv.region] = wasOpen
		}
	}
	walk(roots, "", map[trace.RegionID]bool{})
	first, last := tr.Procs[0].Span()
	p.TotalTime = last - first
	return p, paths
}

// Property: StreamReplay's profile and the call tree built on it agree
// with a recursive-descent reference over random nested streams, every
// node has 0 ≤ exclusive ≤ inclusive, and the roots' inclusive time sums
// to the total exclusive time.
func TestReplayInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := buildRandomNested(seed)
		prof, err := ProfileOf(context.Background(), tr)
		if err != nil {
			return false
		}
		tree, err := CallTreeOf(tr)
		if err != nil {
			return false
		}
		wantProf, wantPaths := refProfile(tr)
		if !reflect.DeepEqual(prof, wantProf) {
			t.Logf("seed %d: profile %+v, reference %+v", seed, prof, wantProf)
			return false
		}
		gotPaths := map[string][3]trace.Duration{}
		var names []string
		var allExcl trace.Duration
		ok := true
		tree.Walk(func(n *CallTreeNode, depth int) {
			names = append(names[:depth], n.Name)
			gotPaths["/"+strings.Join(names, "/")] = [3]trace.Duration{trace.Duration(n.Count), n.Inclusive, n.Exclusive}
			ok = ok && n.Exclusive >= 0 && n.Exclusive <= n.Inclusive
			allExcl += n.Exclusive
		})
		if !reflect.DeepEqual(gotPaths, wantPaths) {
			t.Logf("seed %d: call paths %v, reference %v", seed, gotPaths, wantPaths)
			return false
		}
		return ok && tree.TotalInclusive == allExcl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayAllPropagatesError(t *testing.T) {
	tr := trace.New("bad", 3)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Leave(1, f))
	tr.Append(1, trace.Enter(0, f)) // unclosed
	tr.Append(2, trace.Leave(0, f)) // leave without enter
	for _, jobs := range []int{1, 8} {
		prev := parallel.SetJobs(jobs)
		_, err := ReplayTrace(context.Background(), tr)
		parallel.SetJobs(prev)
		if err == nil || !strings.Contains(err.Error(), "rank 1: 1 unclosed invocations") {
			t.Fatalf("jobs %d: error = %v, want rank 1's", jobs, err)
		}
	}
}

func TestReplayTraceCancelled(t *testing.T) {
	tr, _, _ := fig1Trace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayTrace(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestProfileOfBrokenTrace(t *testing.T) {
	tr := trace.New("broken", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	if _, err := ProfileOf(context.Background(), tr); err == nil {
		t.Fatal("broken trace profiled")
	}
}

// nestedEvents returns depth nested enters of region 0 followed by their
// leaves.
func nestedEvents(depth int) []trace.Event {
	evs := make([]trace.Event, 0, 2*depth)
	for i := 0; i < depth; i++ {
		evs = append(evs, trace.Enter(int64(i), 0))
	}
	for i := 0; i < depth; i++ {
		evs = append(evs, trace.Leave(int64(depth+i), 0))
	}
	return evs
}

// TestReplayDepthLimit: a stack one deeper than MaxDepth must yield a
// typed *LimitError, so a consumer storing depths as int16 never sees a
// wrapped (negative) depth.
func TestReplayDepthLimit(t *testing.T) {
	err := replayEvents(1, nestedEvents(MaxDepth+2)) // one level beyond the last representable depth
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("replay error = %v, want *LimitError", err)
	}
	if le.What != "call-stack depth" || le.Limit != MaxDepth || le.Rank != 0 {
		t.Fatalf("LimitError = %+v", le)
	}
}

// TestReplayAtDepthLimit asserts the guard is not off by one: exactly
// MaxDepth+1 nested invocations (depths 0..MaxDepth) still replay.
func TestReplayAtDepthLimit(t *testing.T) {
	rep := NewStreamReplay(0, 1)
	deepest := -1
	for _, ev := range nestedEvents(MaxDepth + 1) {
		if ev.Kind == trace.KindEnter {
			deepest = rep.Depth()
		}
		if err := rep.Feed(ev); err != nil {
			t.Fatalf("replay at the limit: %v", err)
		}
	}
	if err := rep.Finish(); err != nil {
		t.Fatal(err)
	}
	if deepest != MaxDepth {
		t.Fatalf("deepest depth = %d, want %d", deepest, MaxDepth)
	}
}
