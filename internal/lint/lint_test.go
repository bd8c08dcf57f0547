package lint

import (
	"bytes"
	"encoding/json"
	"testing"

	"perfvar/internal/trace"
)

// cleanTrace builds a two-rank trace that every analyzer accepts: a
// dominant calc function (10 invocations per rank, ≥ 2p), balanced
// nesting, matched messages, monotone accumulated counters, flat
// absolute samples, and collectives at one consistent depth.
func cleanTrace() *trace.Trace {
	tr := trace.New("clean", 2)
	main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
	calc := tr.AddRegion("calc", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	tr.AddRegion("other", trace.ParadigmUser, trace.RoleFunction) // defined, never used
	cyc := tr.AddMetric("PAPI_TOT_CYC", "cycles", trace.MetricAccumulated)
	mem := tr.AddMetric("mem", "bytes", trace.MetricAbsolute)
	for rank := trace.Rank(0); rank < 2; rank++ {
		t := trace.Time(0)
		tr.Append(rank, trace.Enter(t, main))
		for i := 0; i < 10; i++ {
			tr.Append(rank, trace.Enter(t+10_000, calc))
			tr.Append(rank, trace.Sample(t+20_000, cyc, float64(100*(i+1))))
			tr.Append(rank, trace.Sample(t+25_000, mem, 100))
			tr.Append(rank, trace.Sample(t+28_000, mem, 104))
			tr.Append(rank, trace.Leave(t+40_000, calc))
			tr.Append(rank, trace.Enter(t+50_000, bar))
			tr.Append(rank, trace.Leave(t+60_000, bar))
			tr.Append(rank, trace.Send(t+70_000, 1-rank, int32(i), 64))
			tr.Append(rank, trace.Recv(t+80_000, 1-rank, int32(i), 64))
			t += 100_000
		}
		tr.Append(rank, trace.Leave(t, main))
	}
	return tr
}

func TestCleanTraceHasNoDiagnostics(t *testing.T) {
	res := Run(cleanTrace(), Options{})
	if len(res.Diagnostics) != 0 {
		for _, d := range res.Diagnostics {
			t.Errorf("unexpected %s/%s: %s", d.Analyzer, d.Code, d.Message)
		}
	}
	if len(res.Analyzers) < 8 {
		t.Fatalf("only %d analyzers registered, want >= 8", len(res.Analyzers))
	}
}

// findEvent locates the first event of rank matching pred.
func findEvent(tr *trace.Trace, rank trace.Rank, pred func(trace.Event) bool) int {
	for i, ev := range tr.Procs[rank].Events {
		if pred(ev) {
			return i
		}
	}
	panic("event not found")
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		code     string
		severity Severity
		exactly  int // expected diagnostics with (analyzer, code); 0 = at least one
		mutate   func(tr *trace.Trace)
		build    func() *trace.Trace // overrides cleanTrace()+mutate
	}{
		{
			name: "unsorted timestamps", analyzer: "nesting", code: "unsorted-timestamps",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) { tr.Procs[0].Events[5].Time = 1 },
		},
		{
			name: "mismatched leave", analyzer: "nesting", code: "mismatched-leave",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				// First calc leave claims to close main instead.
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindLeave })
				tr.Procs[0].Events[i].Region = 0
			},
		},
		{
			name: "leave without enter", analyzer: "nesting", code: "leave-without-enter",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				// First calc leave claims to close the never-entered region.
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindLeave })
				tr.Procs[0].Events[i].Region = 3
			},
		},
		{
			name: "unclosed region", analyzer: "nesting", code: "unclosed-region",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				evs := tr.Procs[1].Events
				tr.Procs[1].Events = evs[:len(evs)-1] // drop the main leave
			},
		},
		{
			name: "undefined region", analyzer: "nesting", code: "undefined-region",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) { tr.Procs[0].Events[0].Region = 99 },
		},
		{
			name: "unknown event kind", analyzer: "nesting", code: "unknown-event-kind",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindMetric })
				tr.Procs[0].Events[i].Kind = trace.EventKind(200)
			},
		},
		{
			name: "decreasing accumulated metric", analyzer: "metricmode", code: "metric-decreased",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				// Second cyc sample drops below the first.
				n := 0
				for i, ev := range tr.Procs[0].Events {
					if ev.Kind == trace.KindMetric && ev.Metric == 0 {
						if n++; n == 2 {
							tr.Procs[0].Events[i].Value = 1
							return
						}
					}
				}
			},
		},
		{
			name: "undefined metric", analyzer: "metricmode", code: "undefined-metric",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindMetric })
				tr.Procs[0].Events[i].Metric = 42
			},
		},
		{
			name: "absolute metric spike", analyzer: "metricmode", code: "metric-spike",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool {
					return ev.Kind == trace.KindMetric && ev.Metric == 1
				})
				tr.Procs[0].Events[i].Value = 1e7
			},
		},
		{
			name: "undefined peer", analyzer: "msgmatch", code: "undefined-peer",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
				tr.Procs[0].Events[i].Peer = 17
			},
		},
		{
			name: "negative message size", analyzer: "msgmatch", code: "negative-bytes",
			severity: SeverityError, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
				tr.Procs[0].Events[i].Bytes = -5
			},
		},
		{
			name: "unmatched send", analyzer: "msgmatch", code: "unmatched-send",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				// Remove rank 1's first recv; rank 0's tag-0 send dangles.
				i := findEvent(tr, 1, func(ev trace.Event) bool { return ev.Kind == trace.KindRecv })
				tr.Procs[1].Events = append(tr.Procs[1].Events[:i:i], tr.Procs[1].Events[i+1:]...)
			},
		},
		{
			name: "unmatched recv", analyzer: "msgmatch", code: "unmatched-recv",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 1, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
				tr.Procs[1].Events = append(tr.Procs[1].Events[:i:i], tr.Procs[1].Events[i+1:]...)
			},
		},
		{
			name: "bytes mismatch", analyzer: "msgmatch", code: "bytes-mismatch",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 1, func(ev trace.Event) bool { return ev.Kind == trace.KindRecv })
				tr.Procs[1].Events[i].Bytes = 32
			},
		},
		{
			name: "self message", analyzer: "msgmatch", code: "self-message",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
				tr.Procs[0].Events[i].Peer = 0
			},
		},
		{
			name: "duplicate send", analyzer: "msgmatch", code: "duplicate-send",
			severity: SeverityWarning, exactly: 1,
			mutate: func(tr *trace.Trace) {
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindSend })
				evs := tr.Procs[0].Events
				dup := evs[i]
				tr.Procs[0].Events = append(evs[:i+1:i+1], append([]trace.Event{dup}, evs[i+1:]...)...)
			},
		},
		{
			name: "causality violation", analyzer: "clockskew", code: "causality-violation",
			severity: SeverityWarning,
			build: func() *trace.Trace {
				tr := trace.New("skewed", 2)
				f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
				tr.Append(0, trace.Enter(0, f))
				tr.Append(0, trace.Send(1_000_000, 1, 1, 8))
				tr.Append(0, trace.Leave(2_000_000, f))
				tr.Append(1, trace.Enter(0, f))
				tr.Append(1, trace.Recv(1_000_100, 0, 1, 8)) // only 100 ns after send
				tr.Append(1, trace.Leave(2_000_000, f))
				return tr
			},
		},
		{
			name: "clock drift", analyzer: "clockskew", code: "clock-drift",
			severity: SeverityWarning,
			build: func() *trace.Trace {
				// Symmetric impossible messages: relaxation chases its own
				// tail and cannot converge with constant offsets.
				tr := trace.New("drifting", 2)
				f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
				for rank := trace.Rank(0); rank < 2; rank++ {
					tr.Append(rank, trace.Enter(0, f))
					tr.Append(rank, trace.Send(10, 1-rank, 1, 8))
					tr.Append(rank, trace.Recv(20, 1-rank, 1, 8))
					tr.Append(rank, trace.Leave(100, f))
				}
				return tr
			},
		},
		{
			name: "no dominant function", analyzer: "dominance", code: "no-dominant",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				tr := trace.New("flat", 2)
				main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
				for rank := trace.Rank(0); rank < 2; rank++ {
					tr.Append(rank, trace.Enter(0, main))
					tr.Append(rank, trace.Leave(100, main))
				}
				return tr
			},
		},
		{
			name: "segment count divergence", analyzer: "dominance", code: "segment-count-divergence",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				tr := trace.New("ragged", 2)
				main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
				calc := tr.AddRegion("calc", trace.ParadigmUser, trace.RoleFunction)
				counts := []int{10, 2}
				for rank := trace.Rank(0); rank < 2; rank++ {
					t := trace.Time(0)
					tr.Append(rank, trace.Enter(t, main))
					for i := 0; i < counts[rank]; i++ {
						tr.Append(rank, trace.Enter(t+10, calc))
						tr.Append(rank, trace.Leave(t+90, calc))
						t += 100
					}
					tr.Append(rank, trace.Leave(t+10, main))
				}
				return tr
			},
		},
		{
			name: "zero duration invocation", analyzer: "zeroseg", code: "zero-duration",
			severity: SeverityInfo, exactly: 1,
			mutate: func(tr *trace.Trace) {
				// Collapse the first calc invocation of rank 0 to a point.
				i := findEvent(tr, 0, func(ev trace.Event) bool { return ev.Kind == trace.KindLeave })
				tr.Procs[0].Events[i].Time = tr.Procs[0].Events[i-4].Time
				tr.Procs[0].Events[i-3].Time = tr.Procs[0].Events[i-4].Time
				tr.Procs[0].Events[i-2].Time = tr.Procs[0].Events[i-4].Time
				tr.Procs[0].Events[i-1].Time = tr.Procs[0].Events[i-4].Time
			},
		},
		{
			name: "inconsistent sync depth", analyzer: "syncdepth", code: "inconsistent-sync-depth",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				tr := trace.New("lopsided", 2)
				main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
				calc := tr.AddRegion("calc", trace.ParadigmUser, trace.RoleFunction)
				bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
				tr.Append(0, trace.Enter(0, main))
				tr.Append(0, trace.Enter(10, bar)) // depth 1
				tr.Append(0, trace.Leave(20, bar))
				tr.Append(0, trace.Leave(100, main))
				tr.Append(1, trace.Enter(0, main))
				tr.Append(1, trace.Enter(5, calc))
				tr.Append(1, trace.Enter(10, bar)) // depth 2
				tr.Append(1, trace.Leave(20, bar))
				tr.Append(1, trace.Leave(30, calc))
				tr.Append(1, trace.Leave(100, main))
				return tr
			},
		},
		{
			name: "late sender", analyzer: "latesender", code: "late-sender",
			severity: SeverityWarning, exactly: 5,
			build: func() *trace.Trace {
				// Rank 0 computes 800 µs per step before sending; rank 1
				// blocks in MPI_Recv from 10 µs on. Five steps, five
				// late-sender segments.
				tr := trace.New("latesend", 2)
				step := tr.AddRegion("step", trace.ParadigmUser, trace.RoleFunction)
				snd := tr.AddRegion("MPI_Send", trace.ParadigmMPI, trace.RolePointToPoint)
				rcv := tr.AddRegion("MPI_Recv", trace.ParadigmMPI, trace.RolePointToPoint)
				for i := 0; i < 5; i++ {
					t0 := trace.Time(i) * 1_000_000
					tr.Append(0, trace.Enter(t0, step))
					tr.Append(0, trace.Enter(t0+800_000, snd))
					tr.Append(0, trace.Send(t0+800_000, 1, int32(i), 64))
					tr.Append(0, trace.Leave(t0+801_000, snd))
					tr.Append(0, trace.Leave(t0+900_000, step))
					tr.Append(1, trace.Enter(t0, step))
					tr.Append(1, trace.Enter(t0+10_000, rcv))
					tr.Append(1, trace.Recv(t0+805_000, 0, int32(i), 64))
					tr.Append(1, trace.Leave(t0+805_000, rcv))
					tr.Append(1, trace.Leave(t0+900_000, step))
				}
				return tr
			},
		},
		{
			name: "wait chain root cause", analyzer: "waitchain", code: "root-cause",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				// Rank 0 is the straggler; rank 1 merely relays rank 0's
				// lateness to rank 2. Only rank 0 may be named root cause.
				tr := trace.New("chain", 3)
				step := tr.AddRegion("step", trace.ParadigmUser, trace.RoleFunction)
				snd := tr.AddRegion("MPI_Send", trace.ParadigmMPI, trace.RolePointToPoint)
				rcv := tr.AddRegion("MPI_Recv", trace.ParadigmMPI, trace.RolePointToPoint)
				for i := 0; i < 5; i++ {
					t0 := trace.Time(i) * 1_000_000
					tr.Append(0, trace.Enter(t0, step))
					tr.Append(0, trace.Enter(t0+200_000, snd))
					tr.Append(0, trace.Send(t0+200_000, 1, int32(i), 64))
					tr.Append(0, trace.Leave(t0+201_000, snd))
					tr.Append(0, trace.Leave(t0+300_000, step))
					tr.Append(1, trace.Enter(t0, step))
					tr.Append(1, trace.Enter(t0+10_000, rcv))
					tr.Append(1, trace.Recv(t0+210_000, 0, int32(i), 64))
					tr.Append(1, trace.Leave(t0+210_000, rcv))
					tr.Append(1, trace.Enter(t0+215_000, snd))
					tr.Append(1, trace.Send(t0+215_000, 2, int32(i), 64))
					tr.Append(1, trace.Leave(t0+216_000, snd))
					tr.Append(1, trace.Leave(t0+300_000, step))
					tr.Append(2, trace.Enter(t0, step))
					tr.Append(2, trace.Enter(t0+20_000, rcv))
					tr.Append(2, trace.Recv(t0+225_000, 1, int32(i), 64))
					tr.Append(2, trace.Leave(t0+225_000, rcv))
					tr.Append(2, trace.Leave(t0+300_000, step))
				}
				return tr
			},
		},
		{
			name: "communication cycle", analyzer: "commdeadlock", code: "comm-cycle",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				// Ring of unmatched sends: 0→1→2→0, nobody receives.
				tr := trace.New("ring", 3)
				main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
				snd := tr.AddRegion("MPI_Send", trace.ParadigmMPI, trace.RolePointToPoint)
				for rank := trace.Rank(0); rank < 3; rank++ {
					tr.Append(rank, trace.Enter(0, main))
					tr.Append(rank, trace.Enter(10, snd))
					tr.Append(rank, trace.Send(10, (rank+1)%3, 0, 8))
					tr.Append(rank, trace.Leave(20, snd))
					tr.Append(rank, trace.Leave(100, main))
				}
				return tr
			},
		},
		{
			name: "idle rank", analyzer: "idlerank", code: "idle-rank",
			severity: SeverityWarning, exactly: 1,
			build: func() *trace.Trace {
				tr := trace.New("onedead", 4)
				main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
				calc := tr.AddRegion("calc", trace.ParadigmUser, trace.RoleFunction)
				for rank := trace.Rank(0); rank < 3; rank++ {
					t := trace.Time(0)
					tr.Append(rank, trace.Enter(t, main))
					for i := 0; i < 15; i++ {
						tr.Append(rank, trace.Enter(t+10, calc))
						tr.Append(rank, trace.Leave(t+90, calc))
						t += 100
					}
					tr.Append(rank, trace.Leave(t+10, main))
				}
				tr.Append(3, trace.Enter(0, main))
				tr.Append(3, trace.Leave(10, main))
				return tr
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tr *trace.Trace
			if c.build != nil {
				tr = c.build()
			} else {
				tr = cleanTrace()
				c.mutate(tr)
			}
			res := Run(tr, Options{})
			var matched []Diagnostic
			for _, d := range res.Diagnostics {
				if d.Analyzer == c.analyzer && d.Code == c.code {
					matched = append(matched, d)
				}
			}
			if len(matched) == 0 {
				t.Fatalf("no %s/%s diagnostic; got %+v", c.analyzer, c.code, res.Diagnostics)
			}
			if c.exactly > 0 && len(matched) != c.exactly {
				t.Fatalf("got %d %s/%s diagnostics, want %d: %+v",
					len(matched), c.analyzer, c.code, c.exactly, matched)
			}
			if matched[0].Severity != c.severity {
				t.Fatalf("severity = %s, want %s", matched[0].Severity, c.severity)
			}
		})
	}
}

// TestUnreplayableRankYieldsNoStackFacts pins that the zero-duration
// and sync-depth facts come from the call-stack replay: a rank whose
// stream names an undefined region does not replay, so it contributes
// neither, the same as it contributes no dominant selection. Only the
// nesting analyzer reports it.
func TestUnreplayableRankYieldsNoStackFacts(t *testing.T) {
	tr := trace.New("undefined-zero", 2)
	main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	tr.Append(0, trace.Enter(0, main))
	tr.Append(0, trace.Enter(10, 99)) // balanced, zero-length, undefined
	tr.Append(0, trace.Enter(10, bar))
	tr.Append(0, trace.Leave(10, bar))
	tr.Append(0, trace.Leave(10, 99))
	tr.Append(0, trace.Leave(20, main))
	tr.Append(1, trace.Enter(0, main))
	tr.Append(1, trace.Enter(10, bar))
	tr.Append(1, trace.Leave(10, bar))
	tr.Append(1, trace.Leave(20, main))
	res := Run(tr, Options{})
	var undefined, zeros int
	for _, d := range res.Diagnostics {
		switch {
		case d.Code == "undefined-region" && d.Rank == 0:
			undefined++
		case d.Code == "zero-duration":
			zeros++
			if d.Rank != 1 || d.Message != `1 zero-duration invocation(s) of "MPI_Barrier"` {
				t.Errorf("unexpected zero-duration finding: rank %d: %s", d.Rank, d.Message)
			}
		case d.Code == "inconsistent-sync-depth":
			t.Errorf("sync depth compared against an unreplayable rank: %s", d.Message)
		}
	}
	if undefined == 0 {
		t.Errorf("nesting analyzer did not flag the undefined region: %+v", res.Diagnostics)
	}
	if zeros != 1 {
		t.Errorf("got %d zero-duration findings, want 1 (rank 1's barrier)", zeros)
	}
}

func TestRunSubsetAndSeverityFilter(t *testing.T) {
	tr := cleanTrace()
	tr.Procs[0].Events[0].Region = 99 // nesting error
	i := findEvent(tr, 1, func(ev trace.Event) bool { return ev.Kind == trace.KindRecv })
	tr.Procs[1].Events[i].Bytes = 32 // msgmatch warning

	nesting, ok := Lookup("nesting")
	if !ok {
		t.Fatal("nesting not registered")
	}
	res := Run(tr, Options{Analyzers: []Analyzer{nesting}})
	if len(res.Analyzers) != 1 || res.Analyzers[0] != "nesting" {
		t.Fatalf("analyzers = %v", res.Analyzers)
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer != "nesting" {
			t.Fatalf("unexpected analyzer %q", d.Analyzer)
		}
	}

	res = Run(tr, Options{MinSeverity: SeverityError})
	for _, d := range res.Diagnostics {
		if d.Severity < SeverityError {
			t.Fatalf("severity filter leaked %s/%s", d.Analyzer, d.Code)
		}
	}
	if !res.HasErrors() {
		t.Fatal("expected errors")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	tr := cleanTrace()
	tr.Procs[0].Events[0].Region = 99
	res := Run(tr, Options{})

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output not parseable: %v", err)
	}
	if len(decoded.Diagnostics) != len(res.Diagnostics) {
		t.Fatalf("round trip lost diagnostics: %d != %d", len(decoded.Diagnostics), len(res.Diagnostics))
	}
	if decoded.Diagnostics[0].Severity != SeverityError {
		t.Fatalf("severity did not survive round trip: %v", decoded.Diagnostics[0].Severity)
	}

	var text bytes.Buffer
	if err := res.WriteText(&text, 5); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Fatal("empty text report")
	}
}

func TestValidateAgreesWithStructuralAnalyzers(t *testing.T) {
	// Validate and the error-tier analyzers share trace.StreamChecker: a
	// trace is Validate-clean if and only if lint finds no structural
	// error.
	clean := cleanTrace()
	if err := clean.Validate(); err != nil {
		t.Fatalf("Validate(clean) = %v", err)
	}
	if res := Run(clean, Options{MinSeverity: SeverityError}); res.HasErrors() {
		t.Fatalf("lint errors on Validate-clean trace: %+v", res.Diagnostics)
	}

	broken := cleanTrace()
	broken.Procs[0].Events[3].Time = 0
	if err := broken.Validate(); err == nil {
		t.Fatal("Validate accepted broken trace")
	}
	if res := Run(broken, Options{MinSeverity: SeverityError}); !res.HasErrors() {
		t.Fatal("lint missed what Validate rejects")
	}
}
