package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave above
// it: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of values (q in (0,1)) and
// an error when fewer than minBeyond samples lie beyond it. values need not
// be sorted; +Inf entries (failed or shed ops) count as slower than any
// answer.
func percentile(values []float64, q float64) (float64, error) {
	n := len(values)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// windowedP99 splits samples, in arrival order, into the most consecutive
// windows that each hold at least 100*minBeyond samples, takes each
// window's p99 and returns their median. One host stall then moves one
// window's figure instead of the whole run's.
func windowedP99(samples []float64) (float64, error) {
	windows := len(samples) / (100 * minBeyond)
	if windows == 0 {
		_, err := percentile(samples, 0.99)
		return 0, err
	}
	var p99s []float64
	for w := 0; w < windows; w++ {
		lo, hi := w*len(samples)/windows, (w+1)*len(samples)/windows
		v, err := percentile(samples[lo:hi], 0.99)
		if err != nil {
			return 0, err
		}
		p99s = append(p99s, v)
	}
	return median(p99s), nil
}

// median is the plain median, used for per-layer figures where the
// beyond-rule does not apply (a handful of graphs compiled, for example).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// interval is a closed time span in nanoseconds from the run's origin.
type interval struct{ start, end int64 }

// covered returns how much of outer the union of inner spans covers.
// Overlapping children (a hedge and its primary) count once.
func covered(outer interval, inner []interval) int64 {
	clipped := make([]interval, 0, len(inner))
	for _, iv := range inner {
		if iv.start < outer.start {
			iv.start = outer.start
		}
		if iv.end > outer.end {
			iv.end = outer.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(outer interval, children []interval) int64 {
	return outer.end - outer.start - covered(outer, children)
}
