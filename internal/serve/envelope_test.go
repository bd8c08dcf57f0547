package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perfvar"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// decodeEnvelope parses the uniform JSON error body and returns
// (code, message).
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) (string, string) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content-type = %q, want application/json; body: %s", ct, rec.Body.String())
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v; body: %s", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", rec.Body.String())
	}
	return env.Error.Code, env.Error.Message
}

// TestErrorEnvelope pins the error contract: every non-2xx response is
// the JSON envelope {"error":{"code","message"}} with a stable code per
// failure class.
func TestErrorEnvelope(t *testing.T) {
	data := genTrace(t, 8, 4)

	t.Run("400 bad param", func(t *testing.T) {
		s := newTestServer(t, Config{}, "run.pvt", data)
		rec := get(s.Handler(), "/api/v1/traces/run.pvt/analysis?topk=abc")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "bad_param" {
			t.Fatalf("code = %q, want bad_param", code)
		}
	})

	t.Run("400 bad archive", func(t *testing.T) {
		s := newTestServer(t, Config{}, "", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/analyze",
			strings.NewReader("PVT0garbage")))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "bad_archive" {
			t.Fatalf("code = %q, want bad_archive", code)
		}
	})

	t.Run("404 unknown trace", func(t *testing.T) {
		s := newTestServer(t, Config{}, "run.pvt", data)
		rec := get(s.Handler(), "/api/v1/traces/absent.pvt/analysis")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "not_found" {
			t.Fatalf("code = %q, want not_found", code)
		}
	})

	t.Run("404 unknown view", func(t *testing.T) {
		s := newTestServer(t, Config{}, "run.pvt", data)
		rec := get(s.Handler(), "/api/v1/traces/run.pvt/heatmap.jpg")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "not_found" {
			t.Fatalf("code = %q, want not_found", code)
		}
	})

	t.Run("413 too large", func(t *testing.T) {
		s := newTestServer(t, Config{MaxUploadBytes: 1024}, "", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/analyze",
			bytes.NewReader(make([]byte, 4096))))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "too_large" {
			t.Fatalf("code = %q, want too_large", code)
		}
	})

	t.Run("413 oversized directory archive", func(t *testing.T) {
		// Directory-served traces bypass MaxBytesReader; the decoder cap
		// must still reject them before any analysis.
		s := newTestServer(t, Config{MaxUploadBytes: 1024}, "big.pvt", data)
		rec := get(s.Handler(), "/api/v1/traces/big.pvt/analysis")
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", rec.Code)
		}
		if code, _ := decodeEnvelope(t, rec); code != "too_large" {
			t.Fatalf("code = %q, want too_large", code)
		}
	})

	t.Run("499 client closed", func(t *testing.T) {
		s := newTestServer(t, Config{}, "run.pvt", data)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec,
			httptest.NewRequest("GET", "/api/v1/traces/run.pvt/analysis", nil).WithContext(ctx))
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
		}
		if code, _ := decodeEnvelope(t, rec); code != "client_closed_request" {
			t.Fatalf("code = %q, want client_closed_request", code)
		}
	})

	t.Run("504 timeout", func(t *testing.T) {
		big := genTrace(t, 64, 60)
		s := newTestServer(t, Config{RequestTimeout: time.Millisecond}, "big.pvt", big)
		rec := get(s.Handler(), "/api/v1/traces/big.pvt/analysis")
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504; body: %s", rec.Code, rec.Body.String())
		}
		if code, _ := decodeEnvelope(t, rec); code != "timeout" {
			t.Fatalf("code = %q, want timeout", code)
		}
	})
}

// TestEngineHeader pins the streaming rewire: PVTR uploads run the
// streaming engine, text archives fall back to the materialized path,
// and the response advertises which one via X-Perfvar-Engine. The
// causality view gives the same body on every path.
func TestEngineHeader(t *testing.T) {
	pvtr := genTrace(t, 8, 4)

	cfg := workloads.DefaultFD4()
	cfg.Ranks = 8
	cfg.Iterations = 4
	cfg.InterruptRank = 4
	cfg.InterruptIteration = 2
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pvtt bytes.Buffer
	if err := trace.WriteText(&pvtt, tr); err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: storeDir}, "", nil)
	h := s.Handler()

	postView := func(h http.Handler, view string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/analyze?view="+view, bytes.NewReader(body)))
		return rec
	}
	post := func(body []byte) *httptest.ResponseRecorder { return postView(h, "analysis", body) }

	if rec := post(pvtr); rec.Code != http.StatusOK {
		t.Fatalf("PVTR upload: status = %d; body: %s", rec.Code, rec.Body.String())
	} else if eng := rec.Header().Get("X-Perfvar-Engine"); eng != "stream" {
		t.Fatalf("PVTR upload: X-Perfvar-Engine = %q, want stream", eng)
	}

	if rec := post(pvtt.Bytes()); rec.Code != http.StatusOK {
		t.Fatalf("pvtt upload: status = %d; body: %s", rec.Code, rec.Body.String())
	} else if eng := rec.Header().Get("X-Perfvar-Engine"); eng != "materialized" {
		t.Fatalf("pvtt upload: X-Perfvar-Engine = %q, want materialized", eng)
	}

	// The causality view streams the upload again against the cached
	// matrix: the PVTR and pvtt uploads, the library's JSON, and a
	// restarted server whose pipeline result comes from the disk store
	// must all give the same body.
	causality := func(label string, h http.Handler, body []byte) []byte {
		t.Helper()
		rec := postView(h, "causality", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s causality: status = %d; body: %s", label, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	want := causality("PVTR", h, pvtr)
	if got := causality("pvtt", h, pvtt.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("pvtt causality body differs:\n want %s\n got  %s", want, got)
	}
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := res.Causality()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := json.MarshalIndent(an, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if lib = append(lib, '\n'); !bytes.Equal(lib, want) {
		t.Errorf("library causality JSON differs from the served body:\n want %s\n got  %s", lib, want)
	}
	s.Close()

	restarted := newTestServer(t, Config{StoreDir: storeDir}, "", nil)
	if got := causality("restored", restarted.Handler(), pvtr); !bytes.Equal(got, want) {
		t.Errorf("restored causality body differs:\n want %s\n got  %s", want, got)
	}
	if _, _, computed := restarted.Metrics(); computed != 1 {
		t.Errorf("restarted server computed %d results, want 1 (causality over the disk-restored pipeline result)", computed)
	}
}
