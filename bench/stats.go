package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Other guests of the machine slow it by up to half, in bursts of one to
// ten seconds that can cover most of a run. A time taken over the whole
// run then measures how much of it the bursts covered, and a 95th
// percentile moves most, since a burst over 5 % of the ops sets it. So
// the time metrics are taken over each of ten consecutive tenths of a run
// (by sample count), and a workload whose ops are alike from start to end
// reports its quietest tenth: a slower program slows every tenth, while a
// burst slows only the tenths it falls in.
const tenths = 10

// windows returns the bounds [lo, hi) of each non-empty tenth of n samples.
func windows(n int) [][2]int {
	var out [][2]int
	for w := 0; w < tenths; w++ {
		if lo, hi := w*n/tenths, (w+1)*n/tenths; hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// tenthsRule says how a run's latency percentiles are taken from its tenths.
type tenthsRule int

const (
	// quietestTenth reports the lowest of the tenths' percentiles. It
	// suits workloads whose ops are alike along the run.
	quietestTenth tenthsRule = iota
	// wholeRun reports the median over all samples and the median of the
	// tenths' 95th percentiles. It suits serve-mix, whose request mix
	// changes along the run as the caches fill.
	wholeRun
)

// latencyMetrics fills the latency percentiles of one run's samples, which
// must be in completion order. Without samples it fills nothing, and the
// run is refused for the missing metrics.
func (o *outcome) latencyMetrics(lat []time.Duration, how tenthsRule) {
	if len(lat) == 0 {
		return
	}
	v := ms(lat)
	var p50s, p95s []float64
	for _, w := range windows(len(v)) {
		p50s = append(p50s, median(v[w[0]:w[1]]))
		p95s = append(p95s, quantile(v[w[0]:w[1]], 0.95))
	}
	switch how {
	case quietestTenth:
		o.metrics["latency_p50_ms"] = slices.Min(p50s)
		o.metrics["latency_p95_ms"] = slices.Min(p95s)
		o.samples["latency_p50_ms"] = fmt.Sprintf("(quietest of %d tenths of %d samples)", len(p50s), len(v))
		o.info["run_latency_p50_ms"] = median(v)
		o.info["run_latency_p95_ms"] = quantile(v, 0.95)
	case wholeRun:
		o.metrics["latency_p50_ms"] = median(v)
		o.metrics["latency_p95_ms"] = median(p95s)
		o.samples["latency_p50_ms"] = fmt.Sprintf("(%d samples)", len(v))
	}
	o.samples["latency_p95_ms"] = fmt.Sprintf("(%d samples in %d tenths)", len(v), len(p95s))
}

// rateMetric records ops_per_s of a closed loop as the highest rate of
// the run's tenths: the ops each tenth completed per second of its wall
// time. done holds each op's completion time from the start of the
// measured phase, in order.
func (o *outcome) rateMetric(done []time.Duration) {
	var rates []float64
	for _, w := range windows(len(done)) {
		var from time.Duration
		if w[0] > 0 {
			from = done[w[0]-1]
		}
		rates = append(rates, float64(w[1]-w[0])/(done[w[1]-1]-from).Seconds())
	}
	o.metrics["ops_per_s"] = slices.Max(rates)
	o.info["run_ops_per_s"] = float64(len(done)) / done[len(done)-1].Seconds()
	o.samples["ops_per_s"] = fmt.Sprintf("(quietest of %d tenths of %d ops in %.1fs)", len(rates), len(done), done[len(done)-1].Seconds())
}

// setupMetric records the median of repeated set-up times.
func (o *outcome) setupMetric(times []time.Duration) {
	v := make([]float64, len(times))
	for i, d := range times {
		v[i] = d.Seconds()
	}
	o.metrics["setup_s"] = median(v)
	o.samples["setup_s"] = fmt.Sprintf("(median of %d set-ups)", len(v))
}

// memProbe measures a phase's allocation volume and peak heap: bytes
// allocated across the phase (MemStats.TotalAlloc), and the largest
// in-use heap (MemStats.HeapInuse) sampled every 10 ms. It reads
// runtime/metrics, which unlike ReadMemStats does not stop the world, so
// sampling does not pause the workload. A phase can be paused while the
// benchmark prepares inputs, so that only the system under test counts.
type memProbe struct {
	stop chan struct{}
	done sync.WaitGroup

	mu     sync.Mutex
	active bool
	mark   uint64 // allocated bytes when the phase last resumed
	alloc  uint64 // bytes allocated while active
	peak   uint64 // largest in-use heap seen while active
}

// heapSample reads the allocation total and the in-use heap.
type heapSample [3]metrics.Sample

func newHeapSample() *heapSample {
	return &heapSample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

func (s *heapSample) read() (allocated, inuse uint64) {
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// startMemProbe starts an active phase and its sampler.
func startMemProbe() *memProbe {
	p := &memProbe{stop: make(chan struct{})}
	p.resume()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := newHeapSample()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				_, inuse := s.read()
				p.mu.Lock()
				if p.active && inuse > p.peak {
					p.peak = inuse
				}
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// resume collects garbage first, so every active stretch starts from the
// same heap, then counts again.
func (p *memProbe) resume() {
	runtime.GC()
	allocated, inuse := newHeapSample().read()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active, p.mark = true, allocated
	p.peak = max(p.peak, inuse)
}

func (p *memProbe) pause() {
	allocated, inuse := newHeapSample().read()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	p.active = false
	p.alloc += allocated - p.mark
	p.peak = max(p.peak, inuse)
}

// finish stops the sampler and records alloc_mb_per_op and peak_heap_mb.
func (p *memProbe) finish(o *outcome, ops int) {
	p.pause()
	close(p.stop)
	p.done.Wait()
	const mb = 1 << 20
	o.metrics["alloc_mb_per_op"] = float64(p.alloc) / mb / float64(max(ops, 1))
	o.metrics["peak_heap_mb"] = float64(p.peak) / mb
	o.samples["alloc_mb_per_op"] = fmt.Sprintf("(%d ops)", ops)
}
