package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// tinyScale shrinks every input so that all workloads, plain and traced,
// finish in a few seconds. The FD4 archives keep rank 20 and iteration 5,
// where the generator injects its interruption.
var tinyScale = scale{
	fd4Ranks: 24,
	synth:    archiveShape{kind: "synth", ranks: 4, steps: 20, calls: 20},
	corpus: []archiveShape{
		{kind: "fd4", ranks: 24, steps: 8},
		{kind: "cosmo", ranks: 6, steps: 10},
		{kind: "wrf", ranks: 4, steps: 10},
		{kind: "synth", ranks: 4, steps: 20, calls: 20},
	},
	live:      liveShape{ranks: 4, iterations: 40, calls: 20, eventsPerRankTick: 200, sessions: 2},
	serveRate: 130,
	setupReps: 2,
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny scale, plain
// and traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			cfg := runConfig{seed: 3, seconds: 300 * time.Millisecond, traced: traced, scale: tinyScale, outDir: t.TempDir()}
			var out bytes.Buffer
			rec, err := runWorkload(w, cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d failed: %v", w.name, traced, rec.Failed, rec.Attempted, rec.Notes)
			}
			if err := writeLastLine(&out, rec); err != nil {
				t.Fatal(err)
			}
			ll, err := parseLastLine(out.Bytes())
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if len(ll.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(ll.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := ll.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s traced=%t: metric %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestLabel(t *testing.T) {
	base := side{1: 100, 2: 101, 3: 99, 4: 100, 5: 102, 6: 98, 7: 100, 8: 101, 9: 99, 10: 100}
	scaled := func(f float64) side {
		s := side{}
		for seed, v := range base {
			s[seed] = v * f
		}
		return s
	}
	noisy := side{1: 60, 2: 140, 3: 80, 4: 120, 5: 100, 6: 70, 7: 130, 8: 90, 9: 110, 10: 100}
	for _, c := range []struct {
		name         string
		b            side
		higherBetter bool
		want         string
	}{
		{"identical", base, false, "same"},
		{"slightly slower", scaled(1.05), false, "same"},
		{"much slower", scaled(1.3), false, "worse"},
		{"much faster", scaled(0.7), false, "better"},
		{"higher is better", scaled(1.3), true, "better"},
		{"too noisy", noisy, false, "unresolved"},
	} {
		if got := label(base, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: label = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuietestTenthIgnoresOneSlowStretch(t *testing.T) {
	// 100 back-to-back ops of 10 ms, except that a burst of noise
	// stretches ops 45–64 to 30 ms each.
	var lat, done []time.Duration
	var now time.Duration
	for i := 0; i < 100; i++ {
		d := 10 * time.Millisecond
		if i >= 45 && i < 65 {
			d = 30 * time.Millisecond
		}
		now += d
		lat, done = append(lat, d), append(done, now)
	}
	o := newOutcome()
	o.rateMetric(done)
	o.latencyMetrics(lat, quietestTenth)
	for name, want := range map[string]float64{"ops_per_s": 100, "latency_p50_ms": 10, "latency_p95_ms": 10} {
		if got := o.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	o.latencyMetrics(lat, wholeRun)
	if got := o.metrics["latency_p95_ms"]; math.Abs(got-10) > 1e-9 {
		t.Errorf("whole-run latency_p95_ms = %v, want 10: the burst covers three tenths", got)
	}
	if got := quantile(ms(lat), 0.95); got != 30 {
		t.Errorf("95th percentile over the run = %v, want the burst's 30", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, OpID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, OpID: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, OpID: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, OpID: 1, Name: "a", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	const ns = 1e-6 // one nanosecond in milliseconds
	for name, want := range map[string]float64{"op": 40 * ns, "a": 60 * ns, "b": 30 * ns} {
		if got := self[name][1]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self(%s) = %v ms, want %v", name, got, want)
		}
	}
}
