package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"uwm/internal/stats"
)

// sample is a set of observations of one quantity, kept whole so the
// report can give medians, tails and the sample count.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle observation (interpolated for an even
// count), or 0 for an empty sample.
func (s sample) median() float64 { return stats.Quantile(s.sorted(), 0.5) }

// tail returns the observation at the highest percentile that still
// has at least ten observations beyond it, with that percentile and
// the count beyond it. A sample of ten or fewer has no such
// percentile; its maximum is returned with percentile 100 and
// nothing beyond.
func (s sample) tail() (value, percentile float64, beyond int) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return v[n-1], 100, 0
	}
	i := n - 11
	return v[i], 100 * float64(i+1) / float64(n), 10
}

// quantileBeyond returns the q-quantile (interpolated) and how many
// observations lie above it; q of 1 gives the maximum.
func (s sample) quantileBeyond(q float64) (value float64, beyond int) {
	v := s.sorted()
	if len(v) == 0 {
		return 0, 0
	}
	value = stats.Quantile(v, q)
	return value, len(v) - sort.SearchFloat64s(v, math.Nextafter(value, math.Inf(1)))
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0: a layer that did no work
// on a workload reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentileLabel renders a tail percentile for the report, "max" for
// a sample too small to have a tail.
func percentileLabel(p float64, beyond int) string {
	if beyond == 0 {
		return "max"
	}
	return "p" + strconv.FormatFloat(math.Floor(p*100)/100, 'f', -1, 64)
}
