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
// stdout and stderr with testdata/golden/cli/pvtdump/<name>.golden; dir is
// spelled $TMP in the recorded output.
func checkGolden(t *testing.T, name, dir string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.String(), stderr.String())
	got = strings.ReplaceAll(got, dir, "$TMP")
	path := filepath.Join("..", "..", "testdata", "golden", "cli", "pvtdump", name+".golden")
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
		t.Errorf("pvtdump %v differs from %s\ngot:\n%s\nwant:\n%s", args, path, got, want)
	}
}

// TestCLIGolden pins pvtdump's stdout, stderr and exit code for each
// flag row on every input, and for the rejected inputs.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	inputs := cliInputs(t, dir)
	rows := []struct {
		name  string
		flags []string
	}{
		{"summary", nil},
		{"defs", []string{"-defs"}},
		{"events", []string{"-events", "-rank", "1", "-max", "20"}},
		{"calltree", []string{"-calltree"}},
		{"clockcheck", []string{"-clockcheck"}},
		{"lint", []string{"-lint"}},
	}
	for _, in := range inputs {
		for _, row := range rows {
			checkGolden(t, in.name+"_"+row.name, dir, append([]string{"-trace", in.path}, row.flags...)...)
		}
	}
	// A version-1 copy of the PVTR input, under the same name in another
	// directory, gives the same output.
	v1dir := t.TempDir()
	v1 := filepath.Join(v1dir, filepath.Base(inputs[3].path))
	if err := tracetest.WriteV1File(v1, inputs[3].path); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		checkGolden(t, inputs[3].name+"_"+row.name, v1dir, append([]string{"-trace", v1}, row.flags...)...)
	}
	checkGolden(t, "truncated", dir, "-trace", truncatedCopy(t, dir, inputs[3].path))
	checkGolden(t, "no-trace", dir)
	checkGolden(t, "missing", dir, "-trace", filepath.Join(dir, "nosuch.pvtr"))
}

// TestSameOutputOnEveryFormat: the summary and the definition tables of
// a trace read the same from its pvtt file, a PVTR copy and a
// directory-archive copy.
func TestSameOutputOnEveryFormat(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"fig2", "fig3"} {
		pvtt := filepath.Join("..", "..", "testdata", "traces", name+".pvtt")
		tr, err := trace.ReadAnyFile(pvtt)
		if err != nil {
			t.Fatal(err)
		}
		pvtr, tdir := filepath.Join(dir, name+".pvtr"), filepath.Join(dir, name+".dir")
		if err := trace.WriteFile(pvtr, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteDir(tdir, tr); err != nil {
			t.Fatal(err)
		}
		for _, flags := range [][]string{nil, {"-defs"}} {
			var want string
			for i, path := range []string{pvtt, pvtr, tdir} {
				var stdout, stderr bytes.Buffer
				if code := run(append([]string{"-trace", path}, flags...), &stdout, &stderr); code != 0 {
					t.Fatalf("pvtdump %v %s: exit %d: %s", flags, path, code, stderr.String())
				}
				if i == 0 {
					want = stdout.String()
				} else if got := stdout.String(); got != want {
					t.Errorf("pvtdump %v: %s prints\n%s\nbut %s prints\n%s", flags, path, got, pvtt, want)
				}
			}
		}
	}
}
