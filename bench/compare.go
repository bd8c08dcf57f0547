package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads result files: path is one file or a directory whose
// *.json files are read (span files are skipped).
func loadRecords(path string) ([]*record, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var recs []*record
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "spans-") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, &rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return recs, nil
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(math.Floor(m))
		delta := m - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// side is one result set's runs of one (workload, metric) pair, by seed.
type side map[int64]float64

func (s side) values() []float64 {
	v := make([]float64, 0, len(s))
	for _, x := range s {
		v = append(v, x)
	}
	return v
}

// label compares a change (b) against a baseline (a) by the rule of the
// choosing-metrics guide: a spread wider than the bound is unresolved
// unless every run of b reads better than every run of a; a median worse
// by more than the bound is worse; a median better by more than the bound
// and than a's quartile spread is better when b wins nine tenths of the
// seed-matched pairs and unresolved otherwise; everything else is the
// same.
func label(a, b side, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	q1a, ma, q3a := quartiles(a.values())
	q1b, mb, q3b := quartiles(b.values())
	// gain is b's relative improvement over a's median; negative is worse.
	gain := func(x float64) float64 {
		if ma == 0 {
			return 0
		}
		if higherBetter {
			return (x - ma) / math.Abs(ma)
		}
		return (ma - x) / math.Abs(ma)
	}
	better := func(x, y float64) bool { return (higherBetter && x > y) || (!higherBetter && x < y) }
	spread := math.Max(relSpread(q1a, ma, q3a), relSpread(q1b, mb, q3b))
	if spread > bound {
		worstB, bestA := b.values()[0], a.values()[0]
		for _, x := range b.values() {
			if better(worstB, x) {
				worstB = x
			}
		}
		for _, x := range a.values() {
			if better(x, bestA) {
				bestA = x
			}
		}
		if better(worstB, bestA) {
			return "better"
		}
		return "unresolved"
	}
	g := gain(mb)
	switch {
	case g < -bound:
		return "worse"
	case g > bound && g > relSpread(q1a, ma, q3a):
		wins, pairs := 0, 0
		for seed, x := range b {
			if y, ok := a[seed]; ok {
				pairs++
				if better(x, y) {
					wins++
				}
			}
		}
		if pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
			return "better"
		}
		return "unresolved"
	}
	return "same"
}

func relSpread(q1, m, q3 float64) float64 {
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and the label of b against a. Metrics without a bound (the
// per-layer ones) are listed with their medians only.
func runCompare(w io.Writer, specPath, pathA, pathB string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	recsA, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []*record) map[key]side {
		out := map[key]side{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				if out[k] == nil {
					out[k] = side{}
				}
				out[k][r.Seed] = v.Value
			}
		}
		return out
	}
	a, b := collect(recsA), collect(recsB)
	workloadSet := map[string]bool{}
	for k := range a {
		workloadSet[k.workload] = true
	}
	for k := range b {
		workloadSet[k.workload] = true
	}
	var names []string
	for n := range workloadSet {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-14s %-28s %-6s %28s %28s  %s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A")
	row := func(wl string, m specMetric, verdict string) {
		sa, sb := a[key{wl, m.Name}], b[key{wl, m.Name}]
		if len(sa) == 0 && len(sb) == 0 {
			return
		}
		fmt.Fprintf(w, "%-14s %-28s %-6s %28s %28s  %s\n", wl, m.Name, m.Unit, summary(sa), summary(sb), verdict)
	}
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			v := label(a[key{wl, m.Name}], b[key{wl, m.Name}], m.Better == "higher", m.Bound)
			row(wl, m, fmt.Sprintf("%s (bound %.0f%%)", v, m.Bound*100))
		}
		for _, m := range sp.PerLayer {
			row(wl, m, "-")
		}
	}
	return nil
}

func summary(s side) string {
	if len(s) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(s.values())
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(s))
}
