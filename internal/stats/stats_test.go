package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %g, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %g, want 2", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/single-sample edge cases")
	}
}

func TestMinMaxSum(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%g,%g)", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatalf("MinMax(nil) = (%g,%g)", lo, hi)
	}
	if s := Sum([]float64{1, 2, 3}); s != 6 {
		t.Fatalf("Sum = %g", s)
	}
}

func TestMedianPercentile(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd Median = %g", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even Median = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("Median(nil) = %g", m)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %g", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("P100 = %g", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("P25 = %g", p)
	}
	if p := Percentile(xs, 110); p != 5 {
		t.Fatalf("P110 = %g", p)
	}
	if p := Percentile(xs, -10); p != 1 {
		t.Fatalf("P-10 = %g", p)
	}
	// Percentile must not modify its input.
	in := []float64{9, 1, 5}
	Percentile(in, 50)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestMADAndRobustZ(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if med, mad := MedianMAD(xs); med != 2 || mad != 1 {
		t.Fatalf("MedianMAD = (%g, %g), want (2, 1)", med, mad)
	}
	if z := RobustZ(9, 2, 1); !almostEqual(z, 0.6745*7, 1e-12) {
		t.Fatalf("RobustZ = %g", z)
	}
	if z := RobustZ(5, 5, 0); z != 0 {
		t.Fatalf("RobustZ constant same = %g", z)
	}
	if z := RobustZ(6, 5, 0); !math.IsInf(z, 1) {
		t.Fatalf("RobustZ constant above = %g", z)
	}
	if z := RobustZ(4, 5, 0); !math.IsInf(z, -1) {
		t.Fatalf("RobustZ constant below = %g", z)
	}
	if med, mad := MedianMAD(nil); med != 0 || mad != 0 {
		t.Fatalf("MedianMAD(nil) = (%g, %g)", med, mad)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	slope, intercept, r2 := LinearRegression(xs, ys)
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 1, 1e-12) || !almostEqual(r2, 1, 1e-12) {
		t.Fatalf("fit = (%g, %g, %g)", slope, intercept, r2)
	}
}

func TestLinearRegressionEdge(t *testing.T) {
	if s, i, r := LinearRegression(nil, nil); s != 0 || i != 0 || r != 0 {
		t.Fatalf("empty fit = (%g,%g,%g)", s, i, r)
	}
	// Constant xs.
	if s, _, r := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); s != 0 || r != 0 {
		t.Fatalf("constant-x fit = (%g,%g)", s, r)
	}
	// Constant ys: exact fit.
	s, i, r := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if s != 0 || i != 5 || r != 1 {
		t.Fatalf("constant-y fit = (%g,%g,%g)", s, i, r)
	}
	// Length mismatch uses the shorter prefix.
	s, _, _ = LinearRegression([]float64{0, 1, 2, 3}, []float64{0, 2})
	if !almostEqual(s, 2, 1e-12) {
		t.Fatalf("prefix fit slope = %g", s)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if r := Pearson(xs, []float64{2, 4, 6, 8}); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("perfect positive r = %g", r)
	}
	if r := Pearson(xs, []float64{8, 6, 4, 2}); !almostEqual(r, -1, 1e-12) {
		t.Fatalf("perfect negative r = %g", r)
	}
	if r := Pearson(xs, []float64{5, 5, 5, 5}); r != 0 {
		t.Fatalf("constant r = %g", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Fatalf("single-pair r = %g", r)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.5, 1, 1.5, 2, 5, -3}, 0, 2, 4)
	// buckets: [0,0.5) [0.5,1) [1,1.5) [1.5,2]; clamped: 5->last, -3->first
	want := []int{2, 1, 1, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
	h = Histogram([]float64{1, 2}, 3, 3, 2)
	if h[0] != 2 || h[1] != 0 {
		t.Fatalf("degenerate range Histogram = %v", h)
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := ImbalanceRatio([]float64{1, 1, 1, 1}); r != 1 {
		t.Fatalf("balanced ratio = %g", r)
	}
	if r := ImbalanceRatio([]float64{1, 1, 1, 5}); r != 2.5 {
		t.Fatalf("imbalanced ratio = %g", r)
	}
	if r := ImbalanceRatio(nil); r != 1 {
		t.Fatalf("empty ratio = %g", r)
	}
	if r := ImbalanceRatio([]float64{0, 0}); r != 1 {
		t.Fatalf("zero ratio = %g", r)
	}
}

// Property: Percentile is monotone in p and bounded by MinMax.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, hi := MinMax(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson(xs, a·xs+b) = ±1 for a ≠ 0.
func TestPearsonAffineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 + float64(i) // ensure non-constant
		}
		a := rng.Float64()*10 + 0.1
		if rng.Intn(2) == 0 {
			a = -a
		}
		b := rng.NormFloat64() * 50
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = a*xs[i] + b
		}
		r := Pearson(xs, ys)
		want := 1.0
		if a < 0 {
			want = -1
		}
		return almostEqual(r, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean lies within [min, max] and variance is non-negative.
func TestMomentBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		finite := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			return true
		}
		lo, hi := MinMax(finite)
		m := Mean(finite)
		return m >= lo-1e-6 && m <= hi+1e-6 && Variance(finite) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramInvalidBins(t *testing.T) {
	xs := []float64{1, 2, 3}
	for _, n := range []int{-1, 0} {
		if got := Histogram(xs, 0, 4, n); got != nil {
			t.Fatalf("Histogram(n=%d) = %v, want nil", n, got)
		}
	}
	got := Histogram(xs, 0, 4, 1)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("Histogram(n=1) = %v, want [3]", got)
	}
	// Degenerate and NaN ranges must not index out of bounds.
	if got := Histogram(xs, 5, 5, 3); got[0] != 3 {
		t.Fatalf("degenerate range: %v", got)
	}
	if got := Histogram(xs, math.NaN(), 4, 3); got[0] != 3 {
		t.Fatalf("NaN lo: %v", got)
	}
}

func TestHistogramSkipsNaN(t *testing.T) {
	xs := []float64{0.5, math.NaN(), 3.5, math.NaN()}
	counts := Histogram(xs, 0, 4, 4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("NaN samples were binned: counts=%v", counts)
	}
	if counts[0] != 1 || counts[3] != 1 {
		t.Fatalf("counts = %v, want [1 0 0 1]", counts)
	}
	if got := Histogram(xs, 5, 5, 2); got[0] != 2 {
		t.Fatalf("degenerate range counted NaNs: %v", got)
	}
}

func TestOrderStatisticsIgnoreNaN(t *testing.T) {
	clean := []float64{4, 1, 3, 2, 5}
	dirty := []float64{4, math.NaN(), 1, 3, math.NaN(), 2, 5}
	if m := Median(dirty); m != Median(clean) {
		t.Fatalf("Median with NaNs = %v, want %v", m, Median(clean))
	}
	for _, p := range []float64{0, 5, 25, 50, 95, 100} {
		if got, want := Percentile(dirty, p), Percentile(clean, p); got != want {
			t.Fatalf("Percentile(%v) with NaNs = %v, want %v", p, got, want)
		}
	}
	if _, got := MedianMAD(dirty); got != MAD(clean) {
		t.Fatalf("MAD with NaNs = %v, want %v", got, MAD(clean))
	}
	if m := Median([]float64{math.NaN(), math.NaN()}); m != 0 {
		t.Fatalf("Median(all-NaN) = %v, want 0", m)
	}
}

// Property: injecting NaNs at random positions never changes an order
// statistic, and results stay deterministic across shuffles of the NaN
// positions (the regression this guards: sort.Float64s places NaNs at
// unspecified positions, poisoning Percentile/Median/MAD and the robust
// z-scores built on them).
func TestNaNInjectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		clean := make([]float64, n)
		for i := range clean {
			clean[i] = rng.NormFloat64() * 1e3
		}
		dirty := make([]float64, 0, n+10)
		dirty = append(dirty, clean...)
		for k := rng.Intn(10); k > 0; k-- {
			pos := rng.Intn(len(dirty) + 1)
			dirty = append(dirty[:pos], append([]float64{math.NaN()}, dirty[pos:]...)...)
		}
		p := rng.Float64() * 100
		if got, want := Percentile(dirty, p), Percentile(clean, p); got != want {
			t.Fatalf("trial %d: Percentile(%v) = %v, want %v", trial, p, got, want)
		}
		if _, got := MedianMAD(dirty); got != MAD(clean) {
			t.Fatalf("trial %d: MAD = %v, want %v", trial, got, MAD(clean))
		}
		h1 := Histogram(dirty, -3e3, 3e3, 1+rng.Intn(8))
		h2 := Histogram(clean, -3e3, 3e3, len(h1))
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("trial %d: histogram differs with NaNs: %v vs %v", trial, h1, h2)
			}
		}
	}
}

// MAD is the median absolute deviation as Median and a second Median
// over the deviations compute it — three copies and three sorts — kept
// as MedianMAD's oracle.
func MAD(xs []float64) float64 {
	clean := dropNaN(xs)
	if len(clean) == 0 {
		return 0
	}
	m := Median(clean)
	devs := clean
	for i, x := range clean {
		devs[i] = math.Abs(x - m)
	}
	return Median(devs)
}

// Property: MedianMAD returns the bits of (Median, MAD) on samples with
// NaNs, ±Inf, subnormals, heavy ties, and n from 0 to 40, 1 and 2
// included.
func TestMedianMADMatchesMedianAndMADProperty(t *testing.T) {
	pool := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, 1, 2, 3, -7.5, 1e300, -1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0.1, 0.2, 0.3,
	}
	negZero := math.Copysign(0, -1)
	fixed := [][]float64{
		{0, negZero, negZero}, {negZero, 0, 0}, {negZero, 0}, {math.Inf(1), 1, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)}, {math.NaN()}, {math.Inf(1)},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(41)
		if trial%4 == 0 {
			n = 1 + rng.Intn(2)
		}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = rng.NormFloat64() * 1e3
			} else {
				xs[i] = pool[rng.Intn(len(pool))]
			}
		}
		if trial < len(fixed) {
			xs = fixed[trial]
		}
		in := append([]float64(nil), xs...)
		med, mad := MedianMAD(xs)
		wantMed, wantMAD := Median(xs), MAD(xs)
		if math.Float64bits(med) != math.Float64bits(wantMed) || math.Float64bits(mad) != math.Float64bits(wantMAD) {
			t.Fatalf("trial %d: MedianMAD(%v) = (%v, %v), want (%v, %v)", trial, in, med, mad, wantMed, wantMAD)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("trial %d: input mutated: %v, was %v", trial, xs, in)
			}
		}
	}
}
