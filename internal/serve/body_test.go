package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"perfvar/internal/ingest"
	"perfvar/internal/trace"
)

// patterned returns n bytes that differ from chunk to chunk, so a chunk
// copied to the wrong offset shows.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/bodyChunkLen)
	}
	return b
}

// TestReadBody reads bodies around the chunk size and the limit, with an
// honest Content-Length and without one (a chunked upload, read a few
// bytes at a time), and checks the bytes and the over-limit error.
func TestReadBody(t *testing.T) {
	const limit = 3*bodyChunkLen + 100
	for _, n := range []int{0, 1, bodyChunkLen - 1, bodyChunkLen, bodyChunkLen + 1, 2 * bodyChunkLen, limit, limit + 1} {
		for _, chunked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/chunked=%t", n, chunked), func(t *testing.T) {
				want := patterned(n)
				var body io.Reader = bytes.NewReader(want)
				if chunked {
					body = iotest.HalfReader(body)
				}
				r := httptest.NewRequest("POST", "/", body)
				if chunked != (r.ContentLength == -1) {
					t.Fatalf("ContentLength = %d", r.ContentLength)
				}
				got, err := readBody(httptest.NewRecorder(), r, limit, "upload")
				if n > limit {
					wantErr := fmt.Sprintf("upload exceeds %d bytes", limit)
					if !errors.Is(err, trace.ErrTooLarge) || !strings.HasSuffix(err.Error(), wantErr) {
						t.Fatalf("err = %v, want ErrTooLarge ending %q", err, wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || len(got) != cap(got) {
					t.Fatalf("read %d bytes (cap %d), want %d, equal %t", len(got), cap(got), n, bytes.Equal(got, want))
				}
			})
		}
	}
}

// TestBodyLimitPerSite sends each body-reading endpoint a body at its
// limit and one byte over: at the limit the body is read (and fails or
// succeeds on its content), one byte over is a 413 naming the endpoint's
// body and limit. An empty project upload is a 400.
func TestBodyLimitPerSite(t *testing.T) {
	const upload = 2048
	s := newTestServer(t, Config{MaxUploadBytes: upload}, "", nil)
	h := s.Handler()
	sess := createSession(t, h, liveRequest(1, ingest.PolicySpec{}))
	frames := int64(upload) + 1<<20 // MaxSessionBytes defaults to MaxUploadBytes
	for _, c := range []struct {
		method, url, what string
		limit             int64
	}{
		{"POST", "/api/v1/analyze", "upload", upload},
		{"PUT", "/api/v1/projects/p", "upload", upload},
		{"POST", "/api/v1/sessions", "session spec", 1 << 20},
		{"POST", "/api/v1/sessions/" + sess.Session + "/frames", "frame batch", frames},
	} {
		for _, n := range []int64{c.limit, c.limit + 1} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.url, bytes.NewReader(make([]byte, n))))
			if n == c.limit {
				if rec.Code == http.StatusRequestEntityTooLarge {
					t.Fatalf("%s %s: %d bytes at the limit rejected as too large: %s", c.method, c.url, n, rec.Body)
				}
				continue
			}
			code, msg := decodeEnvelope(t, rec)
			want := fmt.Sprintf("%s exceeds %d bytes", c.what, c.limit)
			if rec.Code != http.StatusRequestEntityTooLarge || code != "too_large" || !strings.HasSuffix(msg, want) {
				t.Fatalf("%s %s: %d bytes: status %d, code %q, message %q; want 413 too_large ending %q",
					c.method, c.url, n, rec.Code, code, msg, want)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/api/v1/projects/p", strings.NewReader("")))
	if code, msg := decodeEnvelope(t, rec); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "empty body") {
		t.Fatalf("empty project upload: status %d, code %q, message %q; want 400 empty body", rec.Code, code, msg)
	}
}

// shortBody delivers sent bytes and then fails as a connection closed
// before its declared Content-Length does.
type shortBody struct{ r io.Reader }

func (b shortBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (shortBody) Close() error { return nil }

// TestLyingContentLength declares MaxUploadBytes and sends 1 KiB. The
// upload must fail as a truncated request (400 "truncated_body"), and
// reading it must allocate no more than one chunk plus the bytes sent: a
// buffer sized from the declared length would cost the full limit.
func TestLyingContentLength(t *testing.T) {
	const sent = 1 << 10
	s := newTestServer(t, Config{}, "", nil)
	lying := func() *http.Request {
		r := httptest.NewRequest("POST", "/api/v1/analyze", shortBody{bytes.NewReader(make([]byte, sent))})
		r.ContentLength = s.cfg.MaxUploadBytes
		return r
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, lying())
	if code, msg := decodeEnvelope(t, rec); rec.Code != http.StatusBadRequest || code != "truncated_body" {
		t.Fatalf("status %d, code %q, message %q; want 400 truncated_body", rec.Code, code, msg)
	}

	// Two collections empty the chunk pool, so each read pays for its
	// chunk. The fewest bytes over a few reads count, so another
	// goroutine's allocation in between cannot fail the bound.
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		r, w := lying(), httptest.NewRecorder()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readBody(w, r, s.cfg.MaxUploadBytes, "upload")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("reading %d of %d declared bytes allocated %d bytes", sent, s.cfg.MaxUploadBytes, least)
	if least > bodyChunkLen+sent {
		t.Fatalf("reading a 1 KiB body declared as %d bytes allocated %d bytes, want <= %d",
			s.cfg.MaxUploadBytes, least, bodyChunkLen+sent)
	}
}
