package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for the tail to mean anything.
const minBeyond = 10

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no percentile (NaN).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// iqm is the interquartile mean of xs: the mean of the values between
// its first and third quartiles, each end counted in proportion to the
// part of it that lies inside. Like the median it ignores the quarter
// of outliers at either end, but it averages the middle half, so when a
// sample has two modes of about equal weight (an operation that meets
// the server's garbage collection every other time, say) it moves
// smoothly with their weights instead of jumping from one mode to the
// other as the median does. An empty sample has no mean (NaN).
func iqm(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Value i covers [i, i+1) of [0, n); keep what falls in [n/4, 3n/4).
	lo, hi := float64(n)/4, float64(n)*3/4
	var sum float64
	for i, v := range s {
		w := math.Min(float64(i+1), hi) - math.Max(float64(i), lo)
		if w > 0 {
			sum += w * v
		}
	}
	return sum / (hi - lo)
}

// tailOK reports whether a sample of n values leaves at least minBeyond
// of them beyond its p-th percentile.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// quietRounds picks the rounds a run's metrics are taken over: those
// whose steal time (the time the virtual machine's host ran something
// else on the CPUs the benchmark was given) is at most the median over
// all rounds. That is at least half of them, and all of them when the
// host took nothing. Samples from rounds the host took more of measure
// the host as much as the program, and the host's share varies by a
// factor of ten from one run to the next.
func quietRounds(steal []float64) map[int]bool {
	if len(steal) == 0 {
		return nil
	}
	m := median(steal)
	q := map[int]bool{}
	for k, s := range steal {
		if s <= m {
			q[k] = true
		}
	}
	return q
}

// stealTicks reads the machine's total steal time so far, in clock
// ticks, from /proc/stat; ok is false where it is not available.
func stealTicks() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[8], 64)
	return v, err == nil
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and is at most 64 letters, digits, '_',
// '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's figures by name, refusing illegal names.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: illegal metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}
