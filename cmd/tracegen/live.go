package main

// Live replay: instead of writing an archive, stream the workload's
// events into a running perfvard through the session API — one feeder
// goroutine per rank pushing length-prefixed frames, a poller printing
// alerts as the daemon raises them, and a final DELETE that turns the
// session into a cached analysis. -pace throttles the replay to a
// multiple of the trace's virtual time so alerts surface while the
// "application" is still running, the in-situ shape from the paper.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perfvar/internal/ingest"
	"perfvar/internal/trace"
)

// liveFlushBytes is the frame-batch size POSTed per request when the
// replay is not paced; paced replays flush every frame for liveness.
const liveFlushBytes = 256 << 10

// liveRun describes one replayable workload: its definitions and a
// resumable per-rank event stream.
type liveRun struct {
	header *trace.Header
	ranks  int
	stream func(rank int, emit func(trace.Event) error) error
}

// buildLiveRun materializes (or, for synthetic, merely configures) the
// workload and exposes it as per-rank event streams.
func buildLiveRun(workload string, ranks, grid, steps, kernel int, seed int64) (*liveRun, error) {
	if workload == "synthetic" {
		cfg := buildSyntheticCfg(ranks, steps, kernel, seed)
		return &liveRun{header: cfg.Header(), ranks: cfg.Ranks, stream: cfg.StreamRank}, nil
	}
	tr, err := generate(workload, ranks, grid, steps, seed)
	if err != nil {
		return nil, err
	}
	return &liveRun{
		header: tr.Header(),
		ranks:  len(tr.Procs),
		stream: func(rank int, emit func(trace.Event) error) error {
			for _, ev := range tr.Procs[rank].Events {
				if err := emit(ev); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// defaultDominant picks the loop region — or failing that a region
// named "iteration", the bundled workloads' convention — as the
// dominant function when the flag is unset.
func defaultDominant(h *trace.Header) string {
	for _, r := range h.Regions {
		if r.Role == trace.RoleLoop {
			return r.Name
		}
	}
	for _, r := range h.Regions {
		if r.Name == "iteration" {
			return r.Name
		}
	}
	return ""
}

// runLive replays the workload into the daemon at url.
func runLive(url, workload string, ranks, grid, steps, kernel int, seed int64, pace float64, batch int, dominant string) error {
	run, err := buildLiveRun(workload, ranks, grid, steps, kernel, seed)
	if err != nil {
		return err
	}
	if dominant == "" {
		if dominant = defaultDominant(run.header); dominant == "" {
			return fmt.Errorf("workload %s has no loop region; pick one with -live-dominant", workload)
		}
	}
	if batch <= 0 {
		batch = 256
	}

	ctx := context.Background()
	client := &ingest.Client{Base: url}
	created, err := client.Create(ctx, ingest.RequestFromHeader(run.header, dominant, ingest.PolicySpec{}))
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	fmt.Printf("session %s open at %s: %d ranks, dominant %s, frame format v%d\n",
		created.Session, url, run.ranks, dominant, created.FrameFormat)

	// Alert poller: prints each alert as it lands, counts everything
	// observed before the stream ends.
	pollCtx, stopPoll := context.WithCancel(ctx)
	var pollWG sync.WaitGroup
	var streamed int
	poll := func(cursor int) int {
		resp, err := client.Alerts(ctx, created.Session, cursor)
		if err != nil {
			return cursor
		}
		for _, a := range resp.Alerts {
			fmt.Printf("live alert: rank %d segment %d score %.1f streak %d (t=%s)\n",
				a.Rank, a.SegmentIndex, a.Score, a.Streak, fmtDur(trace.Duration(a.EndNS-a.StartNS)))
		}
		streamed += len(resp.Alerts)
		return resp.NextCursor
	}
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		cursor := 0
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollCtx.Done():
				return
			case <-tick.C:
				cursor = poll(cursor)
			}
		}
	}()

	wallStart := time.Now()
	errs := make([]error, run.ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < run.ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = feedRank(ctx, client, created.Session, run, rank, batch, pace, wallStart)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			stopPoll()
			pollWG.Wait()
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}

	// One synchronous poll before finalizing so every alert raised while
	// frames were in flight counts as "during stream", then seal.
	stopPoll()
	pollWG.Wait()
	resp, err := client.Alerts(ctx, created.Session, 0)
	if err != nil {
		return fmt.Errorf("final alert poll: %w", err)
	}
	fmt.Printf("alerts during stream: %d (over %d segments)\n", len(resp.Alerts), resp.SeenSegments)

	report, err := client.Finalize(ctx, created.Session)
	if err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	fmt.Printf("finalized session %s: %d-byte analysis report cached by the daemon\n",
		created.Session, len(report))
	return nil
}

// feedRank streams one rank's events as frames of batch events each.
// With pace > 0 the push of each frame waits until the frame's first
// event "happens": wall time wallStart + virtual/pace.
func feedRank(ctx context.Context, client *ingest.Client, session string, run *liveRun, rank, batch int, pace float64, wallStart time.Time) error {
	var (
		events []trace.Event
		frames []byte
		t0     trace.Time
		seen   bool
	)
	flush := func(force bool) error {
		if len(events) > 0 {
			if pace > 0 {
				virtual := time.Duration(float64(events[0].Time-t0) / pace)
				if d := time.Until(wallStart.Add(virtual)); d > 0 {
					time.Sleep(d)
				}
			}
			buf, err := trace.AppendFrame(frames, trace.Rank(rank), events)
			if err != nil {
				return err
			}
			frames = buf
			events = events[:0]
		}
		if len(frames) == 0 {
			return nil
		}
		if !force && pace <= 0 && len(frames) < liveFlushBytes {
			return nil
		}
		if _, err := client.PushFrames(ctx, session, frames); err != nil {
			return err
		}
		frames = frames[:0]
		return nil
	}
	err := run.stream(rank, func(ev trace.Event) error {
		if !seen {
			t0, seen = ev.Time, true
		}
		events = append(events, ev)
		if len(events) >= batch {
			return flush(false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush(true)
}
