package serve

// Live-session endpoints: the push half of live in-situ ingestion. A
// measurement layer creates a session (definitions + detection policy),
// POSTs chunked length-prefixed per-rank event frames while the
// application runs, polls alerts, and finalizes with DELETE — which
// assembles the spooled events into a PVTR archive and runs the normal
// analysis pipeline over it, so the result is cached (and persisted)
// exactly as an offline upload of the same bytes would be.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"perfvar/internal/ingest"
	"perfvar/internal/trace"
)

// maxSessionCursor bounds the alert-poll cursor parameter.
const maxSessionCursor = 1 << 30

// handleSessionCreate opens a session from a JSON CreateRequest and
// returns the session id plus the server's frame limits.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r, 1<<20, "session spec")
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	var req ingest.CreateRequest
	if err := json.Unmarshal(data, &req); err != nil {
		s.httpError(w, r, fmt.Errorf("%w: %v", ingest.ErrSpec, err))
		return
	}
	sess, err := s.sessions.Create(req)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ingest.CreateResponse{
		Session:         sess.ID(),
		FrameFormat:     trace.FrameFormatVersion,
		MaxFrameBytes:   s.cfg.MaxFrameBytes,
		MaxSessionBytes: s.cfg.MaxSessionBytes,
	})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"sessions": s.sessions.List()})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	writeJSON(w, sess.Info())
}

// handleSessionFrames ingests a batch of length-prefixed frames. Frames
// are applied atomically one by one: on error, every frame before the
// failing one is already ingested (the receipt in the error path is the
// envelope; feeders resume from their own accounting or re-create the
// session).
func (s *Server) handleSessionFrames(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	// The body holds whole frames; bound it by the session budget plus
	// framing slack so one request can never buffer unbounded bytes.
	data, err := readBody(w, r, s.cfg.MaxSessionBytes+(1<<20), "frame batch")
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	rest := data
	for len(rest) > 0 {
		rank, count, payload, next, err := trace.DecodeFrame(rest, s.cfg.MaxFrameBytes)
		if err != nil {
			// Oversize frames keep their 413 identity; everything else a
			// frame header can get wrong is a malformed batch.
			if !errors.Is(err, trace.ErrTooLarge) {
				err = fmt.Errorf("%w: %w", ingest.ErrBadFrame, err)
			}
			s.httpError(w, r, err)
			return
		}
		if err := sess.FeedFrame(rank, count, payload); err != nil {
			s.httpError(w, r, err)
			return
		}
		rest = next
	}
	writeJSON(w, sess.Receipt())
}

// handleSessionAlerts polls the session's alert log. The cursor comes
// from ?cursor= or, SSE-style, the Last-Event-ID request header; the
// response repeats the next cursor in both the JSON body and the
// Last-Event-ID response header.
func (s *Server) handleSessionAlerts(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	// The cursor arrives as ?cursor= or the SSE-style Last-Event-ID
	// header; both go through the boundedInt chokepoint, query winning.
	cursor := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if err := boundedInt(url.Values{"Last-Event-ID": {v}}, "Last-Event-ID", &cursor, 0, maxSessionCursor); err != nil {
			s.httpError(w, r, err)
			return
		}
	}
	if err := boundedInt(r.URL.Query(), "cursor", &cursor, 0, maxSessionCursor); err != nil {
		s.httpError(w, r, err)
		return
	}
	resp := sess.Alerts(cursor)
	w.Header().Set("Last-Event-ID", strconv.Itoa(resp.NextCursor))
	writeJSON(w, resp)
}

// handleSessionFinalize seals a session. With ?discard the spool is
// deleted unanalyzed; otherwise the spooled events are assembled into a
// PVTR archive and served through the normal analysis pipeline — the
// response is the analysis report JSON, byte-identical to POSTing the
// same archive to /api/v1/analyze, and the result lands in the same
// content-addressed cache entry.
func (s *Server) handleSessionFinalize(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	if r.URL.Query().Has("discard") {
		sess.Discard()
		writeJSON(w, sess.Info())
		return
	}
	// Validate analysis parameters before sealing: a typo must cost a
	// 4xx, not the session.
	p, err := parseAnalysisParams(r)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	data, err := sess.FinalizeArchive()
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	res, err := s.pipeline(ctx, w, data, p)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	w.Header().Set("X-Perfvar-Engine", res.Engine)
	w.Header().Set("Content-Type", "application/json")
	if err := res.Report().WriteJSON(w); err != nil {
		s.log.Warn("finalize response write failed", "session", sess.ID(), "err", err)
	}
}

// drainSessions finalizes every still-open session on shutdown and runs
// each through the pipeline under default analysis options, so the
// results are cached — and persisted, when a disk store is configured —
// for the restarted daemon to serve without replaying anything.
func (s *Server) drainSessions() {
	open := s.sessions.OpenSessions()
	for _, sess := range open {
		data, err := sess.FinalizeArchive()
		if err != nil {
			s.log.Warn("drain: finalize failed", "session", sess.ID(), "err", err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		_, err = s.pipeline(ctx, nil, data, defaultAnalysisParams())
		cancel()
		if err != nil {
			s.log.Warn("drain: analysis failed", "session", sess.ID(), "err", err)
			continue
		}
		s.log.Info("drain: session finalized", "session", sess.ID())
	}
}
