package perfvar

import (
	"bytes"
	"context"
	"testing"

	"perfvar/internal/trace"
)

// encodeArchive returns the PVTR bytes of a small FD4 run.
func encodeArchive(t *testing.T) []byte {
	t.Helper()
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoredResultRoundTrip is the disk tier's correctness contract: a
// persisted-and-restored result must produce byte-identical reports and
// pixel-identical heatmaps, for both engine paths.
func TestStoredResultRoundTrip(t *testing.T) {
	data := encodeArchive(t)

	streaming, err := AnalyzeSource(context.Background(), ArchiveSource(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		res  *Result
	}{
		{"streaming", streaming},
		{"materialized", materialized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.res.EncodeStored(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := DecodeStoredResult(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			var wantJSON, gotJSON bytes.Buffer
			if err := tc.res.Report().WriteJSON(&wantJSON); err != nil {
				t.Fatal(err)
			}
			if err := restored.Report().WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
				t.Fatalf("restored report differs from original:\n%s\nvs\n%s",
					gotJSON.String(), wantJSON.String())
			}

			opts := RenderOptions{Width: 300, Height: 200}
			want, got := tc.res.Heatmap(opts), restored.Heatmap(opts)
			if !bytes.Equal(want.Pix, got.Pix) {
				t.Fatal("restored heatmap pixels differ from original")
			}

			if _, err := restored.Causality(); err != ErrNoTrace {
				t.Fatalf("Causality on restored result = %v, want ErrNoTrace", err)
			}
			if restored.Engine != tc.res.Engine {
				t.Fatalf("Engine = %q, want %q", restored.Engine, tc.res.Engine)
			}
		})
	}
}

func TestDecodeStoredResultRejectsGarbage(t *testing.T) {
	if _, err := DecodeStoredResult(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	if _, err := DecodeStoredResult(bytes.NewReader(nil)); err == nil {
		t.Fatal("decoding empty input succeeded")
	}
}
