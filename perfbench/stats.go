package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// confusion tallies verdicts against ground truth; malicious is positive.
type confusion struct{ tp, fp, fn, tn int }

func (c *confusion) add(truth, verdict bool) {
	switch {
	case truth && verdict:
		c.tp++
	case truth:
		c.fn++
	case verdict:
		c.fp++
	default:
		c.tn++
	}
}

// f1 is the harmonic mean of precision and recall on the malicious class.
func (c confusion) f1() float64 {
	if c.tp == 0 {
		return 0
	}
	return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn)
}
