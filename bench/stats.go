package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for even
// counts), 0 for no samples. vs is not modified.
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile interpolates linearly between order statistics.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail is the reported tail of a timing: the highest percentile, capped
// at 95, that still has ten samples beyond it. With fewer than twenty
// samples there is no such percentile and the median stands in.
func tail(vs []float64) (value, pct float64) {
	n := float64(len(vs))
	if n < 20 {
		return median(vs), 50
	}
	pct = math.Min(95, 100*(1-10/n))
	return percentile(vs, pct), pct
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the steadiness figure the driver checks —
// with the quartiles of Python's statistics.quantiles(vs, n=4)
// (exclusive method). Fewer than two samples have no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
