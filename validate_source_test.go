package perfvar

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// referenceValidate is Trace.Validate as it was before validation ran
// from streams — a serial loop returning the first issue of the lowest
// rank that has one — kept as the oracle of the validation tests.
func referenceValidate(tr *trace.Trace) error {
	for rank := range tr.Procs {
		c := trace.NewStreamChecker(trace.Rank(rank), tr.Regions, tr.Metrics, len(tr.Procs))
		for _, ev := range tr.Procs[rank].Events {
			c.Feed(ev)
		}
		if issues := c.Finish(); len(issues) > 0 {
			return issues[0].Err()
		}
	}
	return nil
}

// traceDefect seeds one structural defect into tr at a random place and
// reports whether tr offered a place for it.
type traceDefect struct {
	name  string
	apply func(rng *rand.Rand, tr *trace.Trace) bool
}

// pickEvent picks a random (rank, index) among the events ok accepts.
func pickEvent(rng *rand.Rand, tr *trace.Trace, ok func(rank, i int) bool) (int, int, bool) {
	var cands [][2]int
	for rank := range tr.Procs {
		for i := range tr.Procs[rank].Events {
			if ok(rank, i) {
				cands = append(cands, [2]int{rank, i})
			}
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	c := cands[rng.Intn(len(cands))]
	return c[0], c[1], true
}

var traceDefects = []traceDefect{
	{"unsorted", func(rng *rand.Rand, tr *trace.Trace) bool {
		rank, i, ok := pickEvent(rng, tr, func(_, i int) bool { return i > 0 })
		if ok {
			evs := tr.Procs[rank].Events
			evs[i].Time = evs[i-1].Time - 1 - trace.Time(rng.Intn(100))
		}
		return ok
	}},
	{"metric-decreased", func(rng *rand.Rand, tr *trace.Trace) bool {
		rank, i, ok := pickEvent(rng, tr, func(rank, i int) bool {
			evs := tr.Procs[rank].Events
			if evs[i].Kind != trace.KindMetric || tr.Metrics[evs[i].Metric].Mode != trace.MetricAccumulated {
				return false
			}
			for _, ev := range evs[:i] {
				if ev.Kind == trace.KindMetric && ev.Metric == evs[i].Metric {
					return true
				}
			}
			return false
		})
		if ok {
			tr.Procs[rank].Events[i].Value = -1
		}
		return ok
	}},
	{"negative-bytes", func(rng *rand.Rand, tr *trace.Trace) bool {
		rank, i, ok := pickEvent(rng, tr, func(rank, i int) bool {
			k := tr.Procs[rank].Events[i].Kind
			return k == trace.KindSend || k == trace.KindRecv
		})
		if ok {
			tr.Procs[rank].Events[i].Bytes = -1 - int64(rng.Intn(100))
		}
		return ok
	}},
	{"undefined-peer", func(rng *rand.Rand, tr *trace.Trace) bool {
		rank, i, ok := pickEvent(rng, tr, func(rank, i int) bool {
			k := tr.Procs[rank].Events[i].Kind
			return k == trace.KindSend || k == trace.KindRecv
		})
		if ok {
			tr.Procs[rank].Events[i].Peer = trace.Rank(tr.NumRanks() + rng.Intn(3))
		}
		return ok
	}},
	{"unclosed-region", func(rng *rand.Rand, tr *trace.Trace) bool {
		// Drop the last leave of a rank whose stream ends with one.
		rank, i, ok := pickEvent(rng, tr, func(rank, i int) bool {
			evs := tr.Procs[rank].Events
			return i == len(evs)-1 && evs[i].Kind == trace.KindLeave
		})
		if ok {
			tr.Procs[rank].Events = tr.Procs[rank].Events[:i]
		}
		return ok
	}},
}

// TestValidateSourceMatchesReference: ValidateSource reports the same
// error as the serial validation it replaced, on single-defect mutations
// of fig2, fig3 and FD4 (and on pairs of defects, where the lowest rank
// must win however the ranks are scheduled), from a TraceSource and,
// wherever PVTR can hold the defect, from a PVTR file and PVTR bytes.
func TestValidateSourceMatchesReference(t *testing.T) {
	defer parallel.SetJobs(parallel.SetJobs(4))
	cfg := workloads.DefaultFD4()
	cfg.Ranks, cfg.Iterations, cfg.InterruptRank = 16, 3, 5
	fd4, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	held := map[string]bool{}
	for _, base := range []*trace.Trace{workloads.Fig2Trace(), workloads.Fig3Trace(), fd4} {
		if err := ValidateSource(ctx, TraceSource(base)); err != nil {
			t.Fatalf("%s: clean trace fails validation: %v", base.Name, err)
		}
		for seed := int64(0); seed < 8; seed++ {
			for _, d := range traceDefects {
				rng := rand.New(rand.NewSource(seed))
				tr := base.Transform(func(_ trace.Rank, evs []trace.Event) []trace.Event {
					return append([]trace.Event(nil), evs...)
				})
				name := d.name
				if !d.apply(rng, tr) {
					continue
				}
				if seed%2 == 1 {
					second := traceDefects[rng.Intn(len(traceDefects))]
					if second.apply(rng, tr) {
						name += "+" + second.name
					}
				}
				want := referenceValidate(tr)
				if want == nil {
					t.Fatalf("%s/%s seed %d: mutation left the trace valid", base.Name, name, seed)
				}
				check := func(via string, src Source) {
					t.Helper()
					if got := ValidateSource(ctx, src); got == nil || got.Error() != want.Error() {
						t.Errorf("%s/%s seed %d via %s: ValidateSource = %v, want %v", base.Name, name, seed, via, got, want)
					}
				}
				check("TraceSource", TraceSource(tr))
				if got := tr.Validate(); got == nil || got.Error() != want.Error() {
					t.Errorf("%s/%s seed %d: Validate = %v, want %v", base.Name, name, seed, got, want)
				}
				var buf bytes.Buffer
				if trace.Write(&buf, tr) != nil {
					continue
				}
				back, err := trace.Read(bytes.NewReader(buf.Bytes()))
				if err != nil || !reflect.DeepEqual(back.Procs, tr.Procs) {
					continue
				}
				held[d.name] = true
				path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.pvtr", base.Name, name, seed))
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				check("PVTR file", FileSource(path))
				check("PVTR bytes", ArchiveSource(buf.Bytes()))
			}
		}
	}
	for _, name := range []string{"metric-decreased", "negative-bytes", "unclosed-region"} {
		if !held[name] {
			t.Errorf("no %s mutation reached the PVTR paths", name)
		}
	}
}
