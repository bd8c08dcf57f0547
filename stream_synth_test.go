package perfvar

// Synthetic-source coverage: the streaming engine over a generator that
// never materializes anything. The equivalence test pins the synthetic
// path to the materialized result; the heap test drives a workload that
// would occupy hundreds of megabytes as event slices through
// AnalyzeSource while polling runtime.MemStats, proving peak heap stays
// O(ranks × depth + segments) — the property that lets the engine
// analyze traces far larger than RAM.

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func synthTestConfig() workloads.SyntheticConfig {
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = 6
	cfg.Iterations = 12
	cfg.KernelCalls = 8
	cfg.SlowRank = 2
	cfg.SlowIteration = 7
	return cfg
}

func TestSyntheticSourceEquivalence(t *testing.T) {
	cfg := synthTestConfig()
	var buf bytes.Buffer
	if err := cfg.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAny(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}

	src := SyntheticSource(cfg.Header(), cfg.StreamRank)
	got, err := AnalyzeSource(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine != EngineStream {
		t.Fatalf("engine = %q, want %q", got.Engine, EngineStream)
	}
	assertResultsEqual(t, "synthetic", tr, want, got)
	assertViewsEqual(t, "synthetic", want, got)

	// A tiny candidate budget evicts the winner and forces the fallback
	// pass — the result must not change.
	forced, err := AnalyzeSource(context.Background(), src, Options{CandidateSegmentBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "synthetic-fallback", tr, want, forced)

	// The hotspot must land where the generator injected it.
	if len(got.Analysis.Hotspots) == 0 {
		t.Fatal("no hotspot found")
	}
	hs := got.Analysis.Hotspots[0].Segment
	if int(hs.Rank) != cfg.SlowRank || hs.Index != cfg.SlowIteration {
		t.Errorf("hotspot at rank %d segment %d, want rank %d segment %d",
			hs.Rank, hs.Index, cfg.SlowRank, cfg.SlowIteration)
	}
}

// The fused lint run must adopt the single-pass candidate segments on a
// synthetic source too (no second generation sweep needed for its
// segmentation facts).
func TestSyntheticSourceLint(t *testing.T) {
	cfg := synthTestConfig()
	src := SyntheticSource(cfg.Header(), cfg.StreamRank)
	res, err := AnalyzeSource(context.Background(), src, Options{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lint == nil {
		t.Fatal("no lint result")
	}
	for _, d := range res.Lint.Diagnostics {
		if d.Code == "analyzer-error" {
			t.Errorf("lint analyzer failed: %s", d.Message)
		}
	}
}

func TestStreamingSyntheticBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB-equivalent workload; skipped in -short")
	}
	cfg := workloads.DefaultSynthetic() // ~5.8 M events

	// What the same trace would occupy as materialized event slices —
	// the yardstick the streaming peak must stay far below.
	eventBytes := int64(cfg.NumEvents()) * int64(reflect.TypeOf(trace.Event{}).Size())

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak.Load() {
				peak.Store(m.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	src := SyntheticSource(cfg.Header(), cfg.StreamRank)
	// The default candidate budget, as users run it: the kernel flood
	// buffers up to DefaultCandidateBudget records per rank before it is
	// evicted, and the winning iteration segments stay far below it.
	res, err := AnalyzeSource(context.Background(), src, Options{})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineStream {
		t.Fatalf("engine = %q", res.Engine)
	}
	for rank, segs := range res.Matrix.PerRank {
		if len(segs) != cfg.Iterations {
			t.Fatalf("rank %d: %d segments, want %d", rank, len(segs), cfg.Iterations)
		}
	}

	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	const bound = 48 << 20 // generous for GC slack; the live set is megabytes
	t.Logf("peak heap growth %d MiB over a %d MiB-equivalent trace", growth>>20, eventBytes>>20)
	if growth > bound {
		t.Errorf("peak heap grew %d MiB, want <= %d MiB (O(ranks×depth+segments))", growth>>20, bound>>20)
	}
	if growth*4 > eventBytes {
		t.Errorf("peak heap growth %d B is not small against the %d B materialized equivalent", growth, eventBytes)
	}
}

// benchSynthConfig is the synthetic run BenchmarkAnalyzeSynthetic
// analyzes and BenchmarkStreamDecode/synth decodes, so their ns/event
// compare like for like.
func benchSynthConfig() workloads.SyntheticConfig {
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = 8
	cfg.Iterations = 100
	cfg.KernelCalls = 100
	return cfg
}

// BenchmarkAnalyzeSynthetic measures the engine's event throughput with
// decode taken out of the picture: the synthetic generator hands events
// straight to the single pass, so ns/op here is the analysis floor.
func BenchmarkAnalyzeSynthetic(b *testing.B) {
	cfg := benchSynthConfig()
	src := SyntheticSource(cfg.Header(), cfg.StreamRank)
	b.ReportAllocs()
	b.SetBytes(int64(cfg.NumEvents()) * int64(reflect.TypeOf(trace.Event{}).Size()))
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSource(context.Background(), src, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.NumEvents()), "ns/event")
}
