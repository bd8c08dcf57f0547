package perfvar

// Serial-vs-parallel equivalence: every fan-out stage must produce
// byte-identical results at any worker count. Each test computes the
// same artifact with one worker and with eight and compares with
// reflect.DeepEqual — any map-iteration-order or completion-order leak
// in a parallel stage shows up as a diff here.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"perfvar/internal/callstack"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// equivTraces returns the named workloads the equivalence tests run on:
// the two toy figure traces plus the paper-scale 100-rank COSMO-SPECS
// case study.
func equivTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	cosmo, err := workloads.CosmoSpecs(workloads.DefaultCosmoSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{
		"fig2":  workloads.Fig2Trace(),
		"fig3":  workloads.Fig3Trace(),
		"cosmo": cosmo,
	}
}

// atJobs evaluates fn under a fixed worker-count override, restoring the
// previous override afterwards.
func atJobs[T any](n int, fn func() T) T {
	prev := SetJobs(n)
	defer SetJobs(prev)
	return fn()
}

func TestParallelPipelineEquivalence(t *testing.T) {
	for name, tr := range equivTraces(t) {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				profile *callstack.Profile
				res     *Result
				issues  []trace.Issue
				lint    *lint.Result
				caus    *CausalityAnalysis
				causJS  []byte
			}
			run := func(jobs int) outcome {
				return atJobs(jobs, func() outcome {
					profile, err := callstack.ProfileOf(context.Background(), tr)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Analyze(tr, Options{})
					if err != nil {
						t.Fatal(err)
					}
					caus, err := res.Causality()
					if err != nil {
						t.Fatal(err)
					}
					causJS, err := json.Marshal(caus)
					if err != nil {
						t.Fatal(err)
					}
					return outcome{
						profile: profile,
						res:     res,
						issues:  tr.Check(),
						lint:    lint.Run(tr, lint.Options{}),
						caus:    caus,
						causJS:  causJS,
					}
				})
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial.profile, parallel.profile) {
				t.Error("flat profiles differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.res.Selection, parallel.res.Selection) {
				t.Error("dominant selections differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.res.Matrix, parallel.res.Matrix) {
				t.Error("segment matrices differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.res.Analysis, parallel.res.Analysis) {
				t.Error("imbalance analyses differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.issues, parallel.issues) {
				t.Error("structural checks differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.lint, parallel.lint) {
				t.Error("lint results differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial.caus, parallel.caus) {
				t.Error("causality analyses differ between 1 and 8 workers")
			}
			if !bytes.Equal(serial.causJS, parallel.causJS) {
				t.Error("causality JSON output differs between 1 and 8 workers")
			}
		})
	}
}

func TestParallelDecodeEquivalence(t *testing.T) {
	for name, tr := range equivTraces(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := trace.Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			read := func(jobs int) *trace.Trace {
				return atJobs(jobs, func() *trace.Trace {
					got, err := trace.Read(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					return got
				})
			}
			serial, parallel := read(1), read(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Error("decoded traces differ between 1 and 8 workers")
			}
			if !reflect.DeepEqual(serial, tr) {
				t.Error("decoded trace differs from the original")
			}
		})
	}
}

func TestParallelReadDirEquivalence(t *testing.T) {
	tr, err := workloads.CosmoSpecs(workloads.DefaultCosmoSpecs())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.WriteDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	read := func(jobs int) *trace.Trace {
		return atJobs(jobs, func() *trace.Trace {
			got, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			return got
		})
	}
	serial, parallel := read(1), read(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("directory archives decoded differently between 1 and 8 workers")
	}
}
