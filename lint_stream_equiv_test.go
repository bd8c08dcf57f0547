package perfvar

// Streaming-vs-materialized lint equivalence: lint.RunSource sweeping
// per-rank archive streams must produce diagnostics byte-identical to
// lint.Run over the materialized trace — on every archive layout, at
// every worker count, and for broken traces via the transparently
// materializing pvtt path. The fused engine run (Options.Lint) must
// match the standalone result too.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfvar/internal/lint"
	"perfvar/internal/trace"
)

// assertLintEqual compares the diagnostic sets structurally and as
// serialized JSON bytes.
func assertLintEqual(t *testing.T, label string, want, got *lint.Result) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: nil lint result", label)
		return
	}
	if !reflect.DeepEqual(want.Diagnostics, got.Diagnostics) {
		t.Errorf("%s: diagnostics differ:\n want %+v\n got  %+v", label, want.Diagnostics, got.Diagnostics)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: lint results differ beyond diagnostics", label)
	}
	var wantJSON, gotJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("%s: lint JSON differs:\n want %s\n got  %s", label, wantJSON.Bytes(), gotJSON.Bytes())
	}
}

func TestLintStreamEquivalence(t *testing.T) {
	for name, tr := range streamEquivTraces(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			pvtrPath := filepath.Join(dir, name+".pvt")
			if err := SaveTrace(pvtrPath, tr); err != nil {
				t.Fatal(err)
			}
			archiveDir := filepath.Join(dir, name+".pvtd")
			if err := SaveTraceDir(archiveDir, tr); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(pvtrPath)
			if err != nil {
				t.Fatal(err)
			}

			want := lint.Run(tr, lint.Options{})

			cases := map[string]Source{
				"file":    FileSource(pvtrPath),
				"dir":     FileSource(archiveDir),
				"archive": ArchiveSource(raw),
			}
			for _, jobs := range []int{1, 8} {
				for label, src := range cases {
					got := atJobs(jobs, func() *lint.Result {
						st, err := src.Open(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						defer st.Close()
						if EngineOf(st) != EngineStream {
							t.Fatalf("jobs=%d %s: source materialized a trace", jobs, label)
						}
						res, err := lint.RunSource(context.Background(), st, lint.Options{})
						if err != nil {
							t.Fatal(err)
						}
						return res
					})
					assertLintEqual(t, sprintfLabel(label, jobs), want, got)
				}
			}
		})
	}
}

func sprintfLabel(label string, jobs int) string {
	return label + "/jobs=" + string(rune('0'+jobs))
}

// TestLintStreamBrokenTrace: broken archives only exist in pvtt form (the
// binary writer refuses them), so they reach RunSource through the
// transparently materializing FileSource path — the diagnostics must
// still match lint.Run exactly, error findings included.
func TestLintStreamBrokenTrace(t *testing.T) {
	path := filepath.Join("testdata", "traces", "broken.pvtt")
	tr, err := trace.ReadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := lint.Run(tr, lint.Options{})
	if !want.HasErrors() {
		t.Fatal("broken.pvtt lints clean — fixture no longer broken?")
	}
	for _, jobs := range []int{1, 8} {
		got := atJobs(jobs, func() *lint.Result {
			st, err := FileSource(path).Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if EngineOf(st) != EngineMaterialized {
				t.Fatal("pvtt source should materialize")
			}
			res, err := lint.RunSource(context.Background(), st, lint.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		assertLintEqual(t, sprintfLabel("broken", jobs), want, got)
	}
}

// TestLintFusedIntoEngine: Options.Lint rides the engine's own streaming
// passes; the piggybacked result must equal the standalone runs, and
// omitting the option must leave Result.Lint nil.
func TestLintFusedIntoEngine(t *testing.T) {
	for name, tr := range streamEquivTraces(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			pvtrPath := filepath.Join(dir, name+".pvt")
			if err := SaveTrace(pvtrPath, tr); err != nil {
				t.Fatal(err)
			}
			want := lint.Run(tr, lint.Options{})

			res, err := AnalyzeSource(context.Background(), FileSource(pvtrPath), Options{Lint: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != EngineStream {
				t.Fatalf("engine = %q, want %q", res.Engine, EngineStream)
			}
			assertLintEqual(t, "fused/stream", want, res.Lint)

			// The fused lint must also work on the materialized engine path.
			mres, err := Analyze(tr, Options{Lint: true})
			if err != nil {
				t.Fatal(err)
			}
			assertLintEqual(t, "fused/materialized", want, mres.Lint)

			plain, err := AnalyzeSource(context.Background(), FileSource(pvtrPath), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Lint != nil {
				t.Error("Result.Lint set without Options.Lint")
			}
		})
	}
}
