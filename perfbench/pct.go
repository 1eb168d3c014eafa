package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer and the value is set by a handful of outliers.
const minBeyond = 10

// dist summarises one timing sample by the benchmark's single percentile
// rule: the median, plus the highest ladder percentile with at least
// minBeyond samples beyond it, always with the sample count.
type dist struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no ladder percentile has enough samples beyond it
	Tail    float64
	Beyond  int // samples beyond TailPct
	sorted  []float64
}

// rankOf is the nearest-rank position (1-based) of percentile p in n sorted
// samples. The tolerance keeps float rounding (99.9/100*10000 is just above
// 9990) from moving an exact rank up by one.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples ranked after percentile p in n samples.
func beyond(p float64, n int) int { return n - rankOf(p, n) }

// summarize sorts xs in place and applies the percentile rule.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.sorted = xs
	d.P50 = d.at(50)
	for _, p := range tailLadder {
		if b := beyond(p, len(xs)); b >= minBeyond {
			d.TailPct, d.Tail, d.Beyond = p, d.at(p), b
			break
		}
	}
	return d
}

// at returns percentile p by nearest rank.
func (d dist) at(p float64) float64 {
	if d.N == 0 {
		return 0
	}
	return d.sorted[rankOf(p, d.N)-1]
}

// supports reports whether percentile p has at least minBeyond samples
// beyond it, so that the rule allows reporting it.
func (d dist) supports(p float64) bool { return d.N > 0 && beyond(p, d.N) >= minBeyond }

// String renders the summary the way every report line states a timing.
func (d dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.4g n=%d", d.P50, d.N)
	if d.TailPct > 0 {
		s += fmt.Sprintf(" p%g=%.4g (%d beyond)", d.TailPct, d.Tail, d.Beyond)
	}
	return s
}
