// Package stats provides the small set of numeric routines the perfvar
// analyses need: moments, order statistics, robust z-scores, linear
// regression, and Pearson correlation. All functions are allocation-light
// and treat empty inputs as zero rather than panicking, so analysis code
// can compose them without per-call-site guards.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest value of xs, or (0, 0) for an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Median returns the median of xs, or 0 for an empty slice. NaN samples
// are ignored (see Percentile). The input is not modified.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. NaN samples are dropped before
// ranking — sort.Float64s places NaNs at an unspecified position, so
// keeping them would make every order statistic nondeterministic. It
// returns 0 when no finite-or-infinite sample remains. The input is not
// modified.
func Percentile(xs []float64, p float64) float64 {
	sorted := dropNaN(xs)
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// dropNaN returns a fresh copy of xs with NaN samples removed. The
// order-statistic entry points (Percentile, Median, MedianMAD, Histogram)
// filter through it so a single poisoned sample cannot make results
// nondeterministic.
func dropNaN(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	lo, hi, frac := ranks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ranks returns the two closest ranks of the p-th percentile of n sorted
// samples and the weight of the upper one.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// MedianMAD returns the median of xs and the median absolute deviation
// of xs around it, both 0 for an empty slice. NaN samples are ignored,
// as in Median. It copies and sorts xs once: the deviations of the
// samples below the median, read from the median outwards, ascend, and
// so do those of the samples above it, so merging
// the two sides yields the deviations' middle order statistics without
// sorting them. The input is not modified.
func MedianMAD(xs []float64) (median, mad float64) {
	sorted := dropNaN(xs)
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(sorted)
	m := percentileSorted(sorted, 50)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		// An infinite median leaves NaN (dropped) deviations for the
		// samples equal to it and +Inf for every other; a NaN median
		// (−Inf and +Inf averaged) leaves only NaN ones.
		if math.IsNaN(m) {
			return m, 0
		}
		for _, x := range sorted {
			if x != m {
				return m, math.Inf(1)
			}
		}
		return m, 0
	}
	// |x−m| rounds monotonically on each side of the split: it ascends
	// from the split outwards, and with a finite median it is never NaN.
	lo, hi, frac := ranks(n, 50)
	r := sort.SearchFloat64s(sorted, m)
	l := r - 1
	var devLo, devHi float64
	for k := 0; k <= hi; k++ {
		var d float64
		if r == n || (l >= 0 && math.Abs(sorted[l]-m) <= math.Abs(sorted[r]-m)) {
			d = math.Abs(sorted[l] - m)
			l--
		} else {
			d = math.Abs(sorted[r] - m)
			r++
		}
		if k == lo {
			devLo = d
		}
		devHi = d
	}
	if lo == hi {
		return m, devLo
	}
	return m, devLo*(1-frac) + devHi*frac
}

// RobustZ returns the robust z-score of x against the distribution
// described by median med and median absolute deviation mad:
//
//	z = 0.6745 · (x − med) / mad
//
// The 0.6745 factor makes the score comparable to a standard z-score for
// normally distributed data. If mad is zero (constant data), RobustZ falls
// back to 0 when x equals med and ±Inf otherwise, so genuinely deviating
// points still rank above everything else.
func RobustZ(x, med, mad float64) float64 {
	if mad == 0 {
		switch {
		case x == med:
			return 0
		case x > med:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return 0.6745 * (x - med) / mad
}

// LinearRegression fits y = slope·x + intercept by least squares and
// returns the fit together with the coefficient of determination r².
// Fewer than two points, or constant xs, yield a zero slope with intercept
// Mean(ys) and r² = 0.
func LinearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0, Mean(ys), 0
	}
	mx := Mean(xs[:n])
	my := Mean(ys[:n])
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		// ys constant: the fit is exact.
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples. It returns 0 when either side is constant or when fewer than
// two pairs are available.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	mx := Mean(xs[:n])
	my := Mean(ys[:n])
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram bins xs into n equal-width buckets spanning [lo, hi] and
// returns the per-bucket counts. Values outside the range are clamped to
// the first or last bucket; NaN samples are skipped entirely (clamping
// them to bucket 0 would silently inflate the cold end). A non-positive
// n — e.g. a hostile query parameter — yields nil instead of panicking.
func Histogram(xs []float64, lo, hi float64, n int) []int {
	if n <= 0 {
		return nil
	}
	counts := make([]int, n)
	if hi <= lo || math.IsNaN(lo) || math.IsNaN(hi) {
		for _, x := range xs {
			if !math.IsNaN(x) {
				counts[0]++
			}
		}
		return counts
	}
	width := (hi - lo) / float64(n)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts
}

// ImbalanceRatio returns max/mean of xs — the classic load-imbalance
// factor (1 = perfectly balanced). It returns 1 for empty or all-zero
// input.
func ImbalanceRatio(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 1
	}
	_, hi := MinMax(xs)
	return hi / m
}
