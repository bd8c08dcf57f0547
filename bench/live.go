package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perfvar/internal/ingest"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// tick is the live feed's batch interval: every tick the generator posts
// one batch holding the next events of every rank.
const tick = 10 * time.Millisecond

// maxGenLate bounds how late the open-loop generator may release batches
// (p95). Latency runs from a batch's release, so the generator's lateness
// is not counted in it; past a whole tick the offered schedule no longer
// holds and the run is invalid. Half a tick is too tight: while other
// guests load the machine the generator's timer fires late, and its p95
// lateness reaches 4–6 ms, against about 1 ms otherwise.
const maxGenLate = tick

// tickBatches cuts per-rank event streams into per-tick frame batches:
// at every tick each rank advances by perTick events, and the batch holds
// one frame per rank that still has events. events[k] counts batch k.
func tickBatches(nranks, perTick int, stream func(rank int, fn func(trace.Event) error) error) (batches [][]byte, events []int, err error) {
	chunk := make([]trace.Event, 0, perTick)
	for rank := 0; rank < nranks; rank++ {
		k := 0
		flush := func() error {
			if len(chunk) == 0 {
				return nil
			}
			for len(batches) <= k {
				batches, events = append(batches, nil), append(events, 0)
			}
			b, err := trace.AppendFrame(batches[k], trace.Rank(rank), chunk)
			if err != nil {
				return err
			}
			batches[k] = b
			events[k] += len(chunk)
			chunk, k = chunk[:0], k+1
			return nil
		}
		err := stream(rank, func(ev trace.Event) error {
			chunk = append(chunk, ev)
			if len(chunk) == perTick {
				return flush()
			}
			return nil
		})
		if err == nil {
			err = flush()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return batches, events, nil
}

// liveSession is one seeded live-synth session, ready to feed.
type liveSession struct {
	cfg     workloads.SyntheticConfig
	archive []byte // the same run written offline
	golden  *golden
	batches [][]byte
	events  []int
}

// buildSession generates a 16-rank synthetic run with one straggling
// (rank, iteration), its offline reference analysis, and its tick batches.
func buildSession(shape liveShape, seed int64) (*liveSession, error) {
	s := &liveSession{cfg: synthConfig(shape.ranks, shape.iterations, shape.calls, seed)}
	var buf bytes.Buffer
	if err := s.cfg.WriteArchive(&buf); err != nil {
		return nil, err
	}
	s.archive = buf.Bytes()
	g, err := goldenOf(s.archive)
	if err != nil {
		return nil, err
	}
	s.golden = g
	s.batches, s.events, err = tickBatches(s.cfg.Ranks, shape.eventsPerRankTick, s.cfg.StreamRank)
	return s, err
}

// liveSessions builds the first n sessions of a live-synth run.
func liveSessions(cfg runConfig, n int) ([]*liveSession, error) {
	sessions := make([]*liveSession, n)
	for i := range sessions {
		s, err := buildSession(cfg.scale.live, subSeed(cfg.seed, i))
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	return sessions, nil
}

// liveInputs returns the archives of the first two live-synth sessions
// for the traced run.
func liveInputs(cfg runConfig) ([][]byte, []*golden, error) {
	sessions, err := liveSessions(cfg, 2)
	if err != nil {
		return nil, nil, err
	}
	var archives [][]byte
	var goldens []*golden
	for _, s := range sessions {
		archives, goldens = append(archives, s.archive), append(goldens, s.golden)
	}
	return archives, goldens, nil
}

// sessionDominant is the dominant function live-synth sessions declare.
const sessionDominant = "iteration"

// warmIterations sizes the set-up's warm-up session.
const warmIterations = 10

// warmUp feeds a whole session without pacing and returns its finalized
// report.
func warmUp(ctx context.Context, c *ingest.Client, s *liveSession) ([]byte, error) {
	created, err := c.Create(ctx, ingest.RequestFromHeader(s.cfg.Header(), sessionDominant, ingest.PolicySpec{}))
	if err != nil {
		return nil, err
	}
	for _, b := range s.batches {
		if _, err := c.PushFrames(ctx, created.Session, b); err != nil {
			return nil, err
		}
	}
	return c.Finalize(ctx, created.Session)
}

// runLiveSynth feeds seeded sessions through perfvard's session API in an
// open loop: one batch is due every tick whether or not the daemon kept
// up, and each batch's latency runs from its release to its receipt.
func runLiveSynth(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	shape := cfg.scale.live
	ctx := context.Background()
	first, err := buildSession(shape, subSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}

	// Set-up: start the daemon and take a short warm-up session from
	// creation to its finalized report, fed as fast as the daemon accepts.
	warmShape := shape
	warmShape.iterations = warmIterations
	warm, err := buildSession(warmShape, subSeed(cfg.seed, -1))
	if err != nil {
		return nil, err
	}
	var d *daemon
	setups := make([]time.Duration, cfg.scale.setupReps)
	for r := range setups {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("daemon-%d", r))
		t0 := time.Now()
		if d, err = startDaemon(dir, false); err != nil {
			return nil, err
		}
		c := &ingest.Client{Base: d.ts.URL, HTTP: oneConnClient()}
		report, err := warmUp(ctx, c, warm)
		setups[r] = time.Since(t0)
		c.HTTP.CloseIdleConnections()
		if err == nil && !bytes.Equal(report, warm.golden.report) {
			err = fmt.Errorf("warm-up report differs from the offline analysis")
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if r < len(setups)-1 {
			d.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	out.setupMetric(setups)
	defer d.close()

	client := &ingest.Client{Base: d.ts.URL, HTTP: oneConnClient()}
	defer client.HTTP.CloseIdleConnections()
	var lat, late, finalize []time.Duration
	var feedTime time.Duration
	var batches, events, sessions int
	probe := startMemProbe()
	start := time.Now()
	for i := 0; i < shape.sessions && time.Since(start) < cfg.seconds; i++ {
		s := first
		if i > 0 {
			// Inputs are prepared with the probe paused: only the daemon
			// and the feed count towards allocation and heap.
			probe.pause()
			if s, err = buildSession(shape, subSeed(cfg.seed, i)); err != nil {
				return nil, err
			}
			probe.resume()
		}
		sessions++
		r := feedSession(ctx, client, s, out)
		lat, late = append(lat, r.lat...), append(late, r.late...)
		feedTime += r.feedTime
		batches += r.acked
		events += r.events
		if r.finalize > 0 {
			finalize = append(finalize, r.finalize)
		}
	}
	out.attempted = len(lat) + sessions
	probe.finish(out, len(lat))

	out.metrics["ops_per_s"] = float64(batches) / feedTime.Seconds()
	out.samples["ops_per_s"] = fmt.Sprintf("(%d batches acknowledged in %.1fs of feed)", batches, feedTime.Seconds())
	out.latencyMetrics(lat, quietestTenth)
	out.info["events_per_s"] = float64(events) / feedTime.Seconds()
	out.info["offered_events_per_s"] = float64(shape.eventsPerRankTick*shape.ranks) / tick.Seconds()
	out.info["finalize_p50_ms"] = median(ms(finalize))
	out.info["sessions"] = float64(sessions)
	genLate := quantile(ms(late), 0.95)
	out.info["gen_late_p95_ms"] = genLate
	if genLate > float64(maxGenLate)/float64(time.Millisecond) {
		out.fail("invalid run: the generator ran %.2f ms late at p95 (limit %v)", genLate, maxGenLate)
	}
	return out, nil
}

// feedResult is what one session's feed observed.
type feedResult struct {
	lat, late []time.Duration
	feedTime  time.Duration
	acked     int // batches acknowledged
	events    int // events acknowledged
	finalize  time.Duration
}

// feedSession opens a session, feeds its batches on the tick schedule,
// checks that the straggler alerted, and finalizes it.
func feedSession(ctx context.Context, c *ingest.Client, s *liveSession, out *outcome) feedResult {
	var r feedResult
	created, err := c.Create(ctx, ingest.RequestFromHeader(s.cfg.Header(), sessionDominant, ingest.PolicySpec{}))
	if err != nil {
		out.fail("create session: %v", err)
		return r
	}
	id := created.Session

	due0 := time.Now().Add(tick)
	due := func(k int) time.Time { return due0.Add(time.Duration(k) * tick) }
	// The generator releases each batch at its due time, or as soon after
	// as its timer fires. A batch's latency runs from its release, so a
	// daemon that falls behind makes later batches wait in ready and that
	// wait counts; the generator's own lateness, which is timer wake-up on
	// a loaded host and not the daemon's doing, is reported apart.
	ready := make(chan int, len(s.batches))
	released := make([]time.Time, len(s.batches))
	late := make([]time.Duration, len(s.batches))
	go func() {
		defer close(ready)
		for k := range s.batches {
			time.Sleep(time.Until(due(k)))
			released[k] = time.Now()
			late[k] = released[k].Sub(due(k))
			ready <- k
		}
	}()
	var receipt *ingest.Receipt
	var lastAck time.Time
	failed := false
	for k := range ready {
		rc, err := c.PushFrames(ctx, id, s.batches[k])
		lastAck = time.Now()
		r.lat = append(r.lat, lastAck.Sub(released[k]))
		if err != nil {
			if !failed {
				out.fail("session %s batch %d: %v", id, k, err)
			}
			failed = true
			continue
		}
		receipt = rc
		r.acked++
		r.events += s.events[k]
	}
	r.late = late
	r.feedTime = lastAck.Sub(due0)
	if failed {
		return r
	}
	if want := uint64(r.events); receipt == nil || receipt.Events != want {
		out.fail("session %s: receipt does not acknowledge all %d events", id, want)
	}

	alerts, err := c.Alerts(ctx, id, 0)
	if err != nil {
		out.fail("session %s alerts: %v", id, err)
	} else if !alertedRank(alerts.Alerts, s.cfg.SlowRank) {
		out.fail("session %s: straggler rank %d never alerted", id, s.cfg.SlowRank)
	}

	t0 := time.Now()
	report, err := c.Finalize(ctx, id)
	r.finalize = time.Since(t0)
	switch {
	case err != nil:
		out.fail("session %s finalize: %v", id, err)
	case !bytes.Equal(report, s.golden.report):
		out.fail("session %s: finalized report differs from the offline analysis", id)
	}
	return r
}

func alertedRank(alerts []ingest.Alert, rank int) bool {
	for _, a := range alerts {
		if a.Rank == rank {
			return true
		}
	}
	return false
}
