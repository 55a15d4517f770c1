package main

import (
	"math"
	"slices"
	"sort"
	"syscall"
	"time"
)

var processStart = time.Now()

// nanotime is the monotonic clock every measurement reads, in nanoseconds
// since the process started.
func nanotime() int64 { return int64(time.Since(processStart)) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between the
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// quantileInts is quantile over integer samples.
func quantileInts(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]int64(nil), v...)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(v[lo]) + float64(v[hi]-v[lo])*(pos-float64(lo))
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives - the rule the benchmark's acceptance is checked with.
func spread(v []float64) float64 {
	m := len(v)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quart(2)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
