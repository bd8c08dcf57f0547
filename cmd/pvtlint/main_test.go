package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfvar/internal/clockfix"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/trace/tracetest"
	"perfvar/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the CLI goldens under testdata/golden/cli")

// cliInput is one archive the CLI goldens run a command on.
type cliInput struct{ name, path string }

// cliInputs returns the inputs of the CLI goldens: the checked-in pvtt
// traces, and a seeded 16-rank FD4 trace with injected clock skew,
// written into dir as a PVTR file and as a directory archive.
func cliInputs(t *testing.T, dir string) []cliInput {
	t.Helper()
	cfg := workloads.DefaultFD4()
	cfg.Ranks, cfg.InterruptRank = 16, 5
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	skew := make([]trace.Duration, tr.NumRanks())
	for i := range skew {
		skew[i] = trace.Duration(rng.Intn(200)) * trace.Microsecond
	}
	if tr, err = clockfix.InjectSkew(tr, skew); err != nil {
		t.Fatal(err)
	}
	pvtr, tdir := filepath.Join(dir, "fd4.pvtr"), filepath.Join(dir, "fd4.dir")
	if err := trace.WriteFile(pvtr, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteDir(tdir, tr); err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join("..", "..", "testdata", "traces")
	return []cliInput{
		{"fig2", filepath.Join(fixtures, "fig2.pvtt")},
		{"fig3", filepath.Join(fixtures, "fig3.pvtt")},
		{"broken", filepath.Join(fixtures, "broken.pvtt")},
		{"fd4-pvtr", pvtr},
		{"fd4-dir", tdir},
	}
}

// truncatedCopy writes the first two thirds of the archive at path into
// dir and returns the copy's path.
func truncatedCopy(t *testing.T, dir, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "truncated.pvtr")
	if err := os.WriteFile(out, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden runs the command on args and compares its exit code,
// stdout and stderr with testdata/golden/cli/pvtlint/<name>.golden; dir is
// spelled $TMP in the recorded output.
func checkGolden(t *testing.T, name, dir string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.String(), stderr.String())
	got = strings.ReplaceAll(got, dir, "$TMP")
	path := filepath.Join("..", "..", "testdata", "golden", "cli", "pvtlint", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("pvtlint %v differs from %s\ngot:\n%s\nwant:\n%s", args, path, got, want)
	}
}

// TestCLIGolden pins pvtlint's stdout, stderr and exit code for the
// JSON and the text report on every input, and for the rejected inputs.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	inputs := cliInputs(t, dir)
	for _, in := range inputs {
		checkGolden(t, in.name+"_json", dir, "-json", in.path)
		checkGolden(t, in.name+"_text", dir, in.path)
	}
	// A version-1 copy of the PVTR input, under the same name in another
	// directory, gives the same output.
	v1dir := t.TempDir()
	v1 := filepath.Join(v1dir, filepath.Base(inputs[3].path))
	if err := tracetest.WriteV1File(v1, inputs[3].path); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, inputs[3].name+"_json", v1dir, "-json", v1)
	checkGolden(t, inputs[3].name+"_text", v1dir, v1)
	checkGolden(t, "truncated", dir, truncatedCopy(t, dir, inputs[3].path))
	checkGolden(t, "no-trace", dir)
	checkGolden(t, "missing", dir, filepath.Join(dir, "nosuch.pvtr"))
}

func fixture(name string) string {
	return filepath.Join("..", "..", "testdata", "traces", name)
}

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestStreamMatchesMaterialized: pvtlint streams every archive through
// the Source API; its JSON report and exit code equal those of lint.Run
// over the materialized trace, on every input of the CLI goldens.
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, in := range cliInputs(t, t.TempDir()) {
		tr, err := trace.ReadAnyFile(in.path)
		if err != nil {
			t.Fatal(err)
		}
		res := lint.Run(tr, lint.Options{})
		var want bytes.Buffer
		if err := res.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		wantCode := 0
		if res.HasErrors() {
			wantCode = 1
		}
		code, out, _ := runCmd(t, "-json", in.path)
		if code != wantCode {
			t.Errorf("%s: exit code = %d, materialized lint says %d", in.name, code, wantCode)
		}
		if out != want.String() {
			t.Errorf("%s: JSON report diverges from the materialized lint", in.name)
		}
	}
}

func TestBrokenTraceExitsOne(t *testing.T) {
	for _, args := range [][]string{
		{"-json", fixture("broken.pvtt")},
		{fixture("broken.pvtt")},
	} {
		code, _, _ := runCmd(t, args...)
		if code != 1 {
			t.Errorf("pvtlint %v: exit code = %d, want 1", args, code)
		}
	}
}

// TestStreamRejectsFix: -stream is no flag any more, so -stream -fix is
// a usage error that writes nothing.
func TestStreamRejectsFix(t *testing.T) {
	fixOut := filepath.Join(t.TempDir(), "fixed.pvtt")
	code, _, stderr := runCmd(t, "-stream", "-fix", fixOut, fixture("broken.pvtt"))
	if code != 2 {
		t.Fatalf("-stream -fix: exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -stream") {
		t.Fatalf("-stream -fix: stderr lacks the undefined-flag message; got %q", stderr)
	}
	if _, err := os.Stat(fixOut); !os.IsNotExist(err) {
		t.Fatalf("-stream -fix wrote %s (stat: %v)", fixOut, err)
	}
}

func TestFixWithoutStreamStillWorks(t *testing.T) {
	fixOut := filepath.Join(t.TempDir(), "fixed.pvtt")
	code, stdout, stderr := runCmd(t, "-fix", fixOut, fixture("broken.pvtt"))
	if code != 1 { // broken.pvtt has error findings; fix still writes
		t.Fatalf("-fix: exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "fix: wrote "+fixOut) {
		t.Fatalf("-fix: stdout lacks the fix summary; got %q", stdout)
	}
	// The repaired copy must lint clean of error-severity findings.
	code, _, stderr = runCmd(t, "-json", fixOut)
	if code != 0 {
		t.Fatalf("fixed trace still has errors: exit %d (stderr: %s)", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{}, 2},
		{[]string{"-severity", "bogus", fixture("fig2.pvtt")}, 2},
		{[]string{"-analyzers", "nosuch", fixture("fig2.pvtt")}, 2},
		{[]string{"nosuchfile.pvtr"}, 2},
		{[]string{"-stream", fixture("fig2.pvtt")}, 2},
	} {
		code, _, _ := runCmd(t, tc.args...)
		if code != tc.want {
			t.Errorf("pvtlint %v: exit code = %d, want %d", tc.args, code, tc.want)
		}
	}
}

func TestListCatalog(t *testing.T) {
	code, stdout, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit code = %d, want 0", code)
	}
	for _, name := range []string{"nesting", "msgmatch", "clockskew", "latesender"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list: catalog lacks analyzer %q", name)
		}
	}
}
