package serve

// Session-endpoint coverage: lifecycle error mapping, concurrent
// multi-rank feeding over real HTTP, mid-stream alert polling with
// cursor resumption, and the finalize contract — the response and the
// cache entry must be exactly what an offline upload of the same
// archive produces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"perfvar/internal/callstack"
	"perfvar/internal/ingest"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// liveRegions is the minimal two-region declaration used across these
// tests: main wrapping the dominant iteration loop.
func liveRequest(ranks int, policy ingest.PolicySpec) ingest.CreateRequest {
	return ingest.CreateRequest{
		Name:  "live-http-test",
		Ranks: ranks,
		Regions: []ingest.RegionSpec{
			{Name: "main"},
			{Name: "iteration", Role: "loop"},
		},
		Dominant: "iteration",
		Policy:   policy,
	}
}

func createSession(t *testing.T, h http.Handler, req ingest.CreateRequest) ingest.CreateResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status = %d; body: %s", rec.Code, rec.Body.String())
	}
	var resp ingest.CreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Session == "" || resp.FrameFormat != trace.FrameFormatVersion {
		t.Fatalf("create response: %+v", resp)
	}
	return resp
}

// frame encodes evs for rank as one wire frame.
func frame(t *testing.T, rank trace.Rank, evs ...trace.Event) []byte {
	t.Helper()
	buf, err := trace.AppendFrame(nil, rank, evs)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func postFrames(h http.Handler, id string, frames []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions/"+id+"/frames", bytes.NewReader(frames)))
	return rec
}

// iterationFrames builds n enter/leave pairs of the given duration
// starting at start, one frame per invocation, returning the frames and
// the time after the last one.
func iterationFrames(t *testing.T, rank trace.Rank, start int64, durations ...int64) ([]byte, int64) {
	t.Helper()
	var buf []byte
	now := start
	for _, d := range durations {
		f, err := trace.AppendFrame(buf, rank, []trace.Event{trace.Enter(now, 1), trace.Leave(now+d, 1)})
		if err != nil {
			t.Fatal(err)
		}
		buf = f
		now += d
	}
	return buf, now
}

func flat(d int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestSessionErrorEnvelope extends the daemon's error contract to the
// session endpoints: every failure class keeps the JSON envelope and a
// stable machine-readable code.
func TestSessionErrorEnvelope(t *testing.T) {
	t.Run("404 unknown session", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		for _, req := range []*http.Request{
			httptest.NewRequest("GET", "/api/v1/sessions/deadbeef", nil),
			httptest.NewRequest("POST", "/api/v1/sessions/deadbeef/frames", strings.NewReader("x")),
			httptest.NewRequest("GET", "/api/v1/sessions/deadbeef/alerts", nil),
			httptest.NewRequest("DELETE", "/api/v1/sessions/deadbeef", nil),
		} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s: status = %d, want 404", req.Method, req.URL.Path, rec.Code)
			}
			if code, _ := decodeEnvelope(t, rec); code != "unknown_session" {
				t.Fatalf("code = %q, want unknown_session", code)
			}
		}
	})

	t.Run("400 bad create spec", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		for name, body := range map[string]string{
			"not json":         "{",
			"no regions":       `{"ranks":2,"dominant":"f"}`,
			"unknown dominant": `{"ranks":2,"regions":[{"name":"f"}],"dominant":"g"}`,
		} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400; body: %s", name, rec.Code, rec.Body.String())
			}
			if code, _ := decodeEnvelope(t, rec); code != "bad_param" {
				t.Fatalf("%s: code = %q, want bad_param", name, code)
			}
		}
	})

	t.Run("400 bad frame", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		id := createSession(t, s.Handler(), liveRequest(2, ingest.PolicySpec{})).Session
		rec := postFrames(s.Handler(), id, []byte{0xff, 0xff, 0xff})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "bad_frame" {
			t.Fatalf("code = %q, want bad_frame", code)
		}
	})

	t.Run("422 out of order", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		id := createSession(t, s.Handler(), liveRequest(2, ingest.PolicySpec{})).Session
		if rec := postFrames(s.Handler(), id, frame(t, 0, trace.Enter(100, 1), trace.Leave(200, 1))); rec.Code != http.StatusOK {
			t.Fatalf("first frame: %d; body: %s", rec.Code, rec.Body.String())
		}
		rec := postFrames(s.Handler(), id, frame(t, 0, trace.Enter(150, 1)))
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "out_of_order" {
			t.Fatalf("code = %q, want out_of_order", code)
		}
	})

	// A frame the segmentation kernel rejects poisons the session at
	// FeedFrame; the failure is sticky: a well-formed frame of another
	// rank and the finalize report the same failure.
	tooDeep := make([]trace.Event, callstack.MaxDepth+2)
	for i := range tooDeep {
		tooDeep[i] = trace.Enter(trace.Time(i), 0)
	}
	for _, tc := range []struct {
		name  string
		evs   []trace.Event
		where string
	}{
		// main { iteration { ... leave main: the leave does not match
		// the open region.
		{"non-LIFO", []trace.Event{trace.Enter(0, 0), trace.Enter(1, 1), trace.Leave(2, 0)},
			`rank 0 event 2: leave of "main" while "iteration" is open`},
		// One enter more than callstack.Replay can represent.
		{"too deep", tooDeep,
			fmt.Sprintf("rank 0 event %d: call-stack depth exceeds", callstack.MaxDepth+1)},
	} {
		t.Run("422 "+tc.name+" frame poisons the session", func(t *testing.T) {
			s := newTestServer(t, Config{}, "", nil)
			h := s.Handler()
			id := createSession(t, h, liveRequest(2, ingest.PolicySpec{})).Session
			rec := postFrames(h, id, frame(t, 0, tc.evs...))
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422; body: %s", rec.Code, rec.Body.String())
			}
			code, msg := decodeEnvelope(t, rec)
			if code != "unanalyzable" || !strings.Contains(msg, tc.where) {
				t.Fatalf("envelope = %q %q, want unanalyzable naming %q", code, msg, tc.where)
			}
			rec = postFrames(h, id, frame(t, 1, trace.Enter(0, 1), trace.Leave(5, 1)))
			if c, m := decodeEnvelope(t, rec); rec.Code != http.StatusUnprocessableEntity || c != code || m != msg {
				t.Fatalf("next frame: %d %q %q, want the poisoning failure", rec.Code, c, m)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/api/v1/sessions/"+id, nil))
			if c, m := decodeEnvelope(t, rec); rec.Code != http.StatusUnprocessableEntity || c != code || m != msg {
				t.Fatalf("finalize: %d %q %q, want the poisoning failure", rec.Code, c, m)
			}
		})
	}

	t.Run("413 over budget", func(t *testing.T) {
		s := newTestServer(t, Config{MaxSessionBytes: 64}, "", nil)
		id := createSession(t, s.Handler(), liveRequest(1, ingest.PolicySpec{})).Session
		var evs []trace.Event
		for i := int64(0); i < 64; i++ {
			evs = append(evs, trace.Enter(2*i, 1), trace.Leave(2*i+1, 1))
		}
		rec := postFrames(s.Handler(), id, frame(t, 0, evs...))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "too_large" {
			t.Fatalf("code = %q, want too_large", code)
		}
	})

	t.Run("413 oversize frame", func(t *testing.T) {
		s := newTestServer(t, Config{MaxFrameBytes: 8}, "", nil)
		id := createSession(t, s.Handler(), liveRequest(1, ingest.PolicySpec{})).Session
		var evs []trace.Event
		for i := int64(0); i < 16; i++ {
			evs = append(evs, trace.Enter(2*i, 1), trace.Leave(2*i+1, 1))
		}
		rec := postFrames(s.Handler(), id, frame(t, 0, evs...))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "too_large" {
			t.Fatalf("code = %q, want too_large", code)
		}
	})

	t.Run("409 feed after finalize", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		h := s.Handler()
		id := createSession(t, h, liveRequest(1, ingest.PolicySpec{})).Session
		body, _ := iterationFrames(t, 0, 0, flat(1000, 8)...)
		if rec := postFrames(h, id, body); rec.Code != http.StatusOK {
			t.Fatalf("feed: %d; body: %s", rec.Code, rec.Body.String())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/api/v1/sessions/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("finalize: %d; body: %s", rec.Code, rec.Body.String())
		}
		rec = postFrames(h, id, frame(t, 0, trace.Enter(100, 1)))
		if rec.Code != http.StatusConflict {
			t.Fatalf("status = %d, want 409; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "finalized" {
			t.Fatalf("code = %q, want finalized", code)
		}
		// Double finalize is the same conflict.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/api/v1/sessions/"+id, nil))
		if rec.Code != http.StatusConflict {
			t.Fatalf("double finalize: %d, want 409", rec.Code)
		}
	})

	t.Run("429 session limit", func(t *testing.T) {
		s := newTestServer(t, Config{MaxSessions: 1}, "", nil)
		createSession(t, s.Handler(), liveRequest(1, ingest.PolicySpec{}))
		body, _ := json.Marshal(liveRequest(1, ingest.PolicySpec{}))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions", bytes.NewReader(body)))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "session_limit" {
			t.Fatalf("code = %q, want session_limit", code)
		}
	})

	t.Run("400 bad cursor", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		id := createSession(t, s.Handler(), liveRequest(1, ingest.PolicySpec{})).Session
		rec := get(s.Handler(), "/api/v1/sessions/"+id+"/alerts?cursor=-2")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "bad_param" {
			t.Fatalf("code = %q, want bad_param", code)
		}
	})
}

// TestSessionAlertsMidStream pins the point of live ingestion: the
// alert is visible over GET while the session is still open and frames
// keep arriving, and the cursor protocol resumes without replaying.
func TestSessionAlertsMidStream(t *testing.T) {
	s := newTestServer(t, Config{}, "", nil)
	h := s.Handler()
	id := createSession(t, h, liveRequest(2, ingest.PolicySpec{Warmup: 4})).Session

	baseline, now := iterationFrames(t, 0, 0, flat(1000, 20)...)
	if rec := postFrames(h, id, baseline); rec.Code != http.StatusOK {
		t.Fatalf("baseline: %d; body: %s", rec.Code, rec.Body.String())
	}
	straggler, now := iterationFrames(t, 0, now, 50000)
	if rec := postFrames(h, id, straggler); rec.Code != http.StatusOK {
		t.Fatalf("straggler: %d; body: %s", rec.Code, rec.Body.String())
	}

	rec := get(h, "/api/v1/sessions/"+id+"/alerts")
	if rec.Code != http.StatusOK {
		t.Fatalf("alerts: %d; body: %s", rec.Code, rec.Body.String())
	}
	var resp ingest.AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "open" {
		t.Fatalf("state = %q, want open (alert must precede finalize)", resp.State)
	}
	if len(resp.Alerts) != 1 || resp.Alerts[0].Rank != 0 {
		t.Fatalf("alerts = %+v, want one on rank 0", resp.Alerts)
	}
	if rec.Header().Get("Last-Event-ID") != "1" {
		t.Fatalf("Last-Event-ID = %q, want 1", rec.Header().Get("Last-Event-ID"))
	}

	// The stream continues after the alert; resuming from the cursor
	// returns nothing until a new episode.
	more, _ := iterationFrames(t, 0, now, flat(1000, 3)...)
	if rec := postFrames(h, id, more); rec.Code != http.StatusOK {
		t.Fatalf("post-alert frames: %d", rec.Code)
	}
	req := httptest.NewRequest("GET", "/api/v1/sessions/"+id+"/alerts", nil)
	req.Header.Set("Last-Event-ID", "1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Alerts) != 0 || resp.NextCursor != 1 {
		t.Fatalf("resumed poll: %+v", resp)
	}
}

// TestSessionFinalizeEquivalence feeds a synthetic workload through the
// session API with one concurrent feeder per rank (exercising the
// ingest.Client over real HTTP) and pins the finalize contract: the
// DELETE response is byte-identical to POSTing the same archive to
// /api/v1/analyze, and the pipeline result is served from the same
// content-addressed cache entry.
func TestSessionFinalizeEquivalence(t *testing.T) {
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = 4
	cfg.Iterations = 8
	cfg.KernelCalls = 4
	cfg.SlowRank = 2
	cfg.SlowIteration = 5

	s := newTestServer(t, Config{}, "", nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := &ingest.Client{Base: srv.URL}
	ctx := context.Background()

	created, err := client.Create(ctx, ingest.RequestFromHeader(cfg.Header(), "iteration", ingest.PolicySpec{}))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Ranks)
	for rank := 0; rank < cfg.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var batch []trace.Event
			var buf []byte
			flush := func() error {
				if len(batch) == 0 {
					return nil
				}
				f, err := trace.AppendFrame(buf[:0], trace.Rank(rank), batch)
				if err != nil {
					return err
				}
				buf = f
				batch = batch[:0]
				_, err = client.PushFrames(ctx, created.Session, buf)
				return err
			}
			err := cfg.StreamRank(rank, func(ev trace.Event) error {
				batch = append(batch, ev)
				if len(batch) == 32 {
					return flush()
				}
				return nil
			})
			if err == nil {
				err = flush()
			}
			errs[rank] = err
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	report, err := client.Finalize(ctx, created.Session)
	if err != nil {
		t.Fatal(err)
	}

	// The offline shape of the same run.
	var archive bytes.Buffer
	if err := cfg.WriteArchive(&archive); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/analyze?view=analysis", bytes.NewReader(archive.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("offline analyze: %d; body: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(report, rec.Body.Bytes()) {
		t.Fatalf("finalize report differs from offline analysis:\n live %d bytes\n offline %d bytes", len(report), rec.Body.Len())
	}
	// Same archive bytes, same options → the offline request must have
	// been answered from the entry the finalize populated.
	if tier := rec.Header().Get("X-Perfvar-Cache"); tier != "hit" {
		t.Fatalf("offline analyze cache tier = %q, want hit (shared content address)", tier)
	}

	// The session list shows the tombstone.
	rec = get(s.Handler(), "/api/v1/sessions")
	var list struct {
		Sessions []ingest.SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].State != "finalized" {
		t.Fatalf("session list: %+v", list.Sessions)
	}
	if list.Sessions[0].Events != cfg.NumEvents() {
		t.Fatalf("list events = %d, want %d", list.Sessions[0].Events, cfg.NumEvents())
	}
}

// TestServerDrainPersistsSessions: Close must finalize still-open
// sessions through the pipeline so a restarted daemon (same disk store)
// serves the result without recomputing.
func TestServerDrainPersistsSessions(t *testing.T) {
	storeDir := t.TempDir()
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = 2
	cfg.Iterations = 6
	cfg.KernelCalls = 2
	cfg.SlowRank = 1
	cfg.SlowIteration = 3

	s, err := New(Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	created := createSession(t, h, ingest.RequestFromHeader(cfg.Header(), "iteration", ingest.PolicySpec{}))
	for rank := 0; rank < cfg.Ranks; rank++ {
		var evs []trace.Event
		if err := cfg.StreamRank(rank, func(ev trace.Event) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rec := postFrames(h, created.Session, frame(t, trace.Rank(rank), evs...)); rec.Code != http.StatusOK {
			t.Fatalf("rank %d: %d; body: %s", rank, rec.Code, rec.Body.String())
		}
	}
	s.Close() // drains: finalize + pipeline + disk store

	restarted, err := New(Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	var archive bytes.Buffer
	if err := cfg.WriteArchive(&archive); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	restarted.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/analyze?view=analysis", bytes.NewReader(archive.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("restarted analyze: %d; body: %s", rec.Code, rec.Body.String())
	}
	if tier := rec.Header().Get("X-Perfvar-Cache"); tier != "disk" {
		t.Fatalf("cache tier = %q, want disk (drained result must survive restart)", tier)
	}
}

// TestSessionMetricsExposition: the /metrics endpoint reports the
// ingestion gauges.
func TestSessionMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{}, "", nil)
	h := s.Handler()
	id := createSession(t, h, liveRequest(1, ingest.PolicySpec{})).Session
	if rec := postFrames(h, id, frame(t, 0, trace.Enter(0, 1), trace.Leave(10, 1))); rec.Code != http.StatusOK {
		t.Fatalf("feed: %d", rec.Code)
	}
	rec := get(h, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		"perfvard_sessions_open 1",
		"perfvard_sessions_opened_total 1",
		"perfvard_session_frames_total 1",
		"perfvard_session_events_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
