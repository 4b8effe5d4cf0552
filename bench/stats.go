package main

import (
	"math"
	"sort"
)

// rankQuantile is the nearest-rank q-quantile of raw samples: an observed
// value, never an interpolation, so a +Inf failure stays +Inf instead of
// turning the neighbouring percentile into NaN.
func rankQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads read the same here as anywhere else the
// runs are summarized.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		out[i-1] = s[j-1]
		if delta > 0 { // skipping the zero-weight term keeps a +Inf neighbour from making NaN
			out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
		}
	}
	return out[0], out[1], out[2]
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
