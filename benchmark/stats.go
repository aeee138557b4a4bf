package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// timed is one latency observation and when (since the window start) it
// was made, so a window can be cut into slices after the fact.
type timed struct {
	at  time.Duration
	dur time.Duration
}

// sorted returns a sorted copy of vals.
func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = sorted(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = sorted(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// slicedQuantileMs cuts the window into whole slices, takes the q-quantile
// of each slice's latencies and returns the median of those, in
// milliseconds. One stall (a GC cycle, a slow fsync) then lands in one
// slice instead of deciding the whole run's percentile, which is what keeps
// identical runs within the metric's bound on a 2-core sandbox. Slices with
// fewer than minPerSlice samples are dropped; if none qualify the quantile
// of the whole window is returned.
func slicedQuantileMs(samples []timed, window, slice time.Duration, q float64, minPerSlice int) float64 {
	n := int(window / slice)
	if n < 1 {
		n = 1
	}
	buckets := make([][]float64, n)
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		ms := float64(s.dur) / 1e6
		all = append(all, ms)
		i := int(s.at / slice)
		if i >= 0 && i < n {
			buckets[i] = append(buckets[i], ms)
		}
	}
	var per []float64
	for _, b := range buckets {
		if len(b) >= minPerSlice {
			per = append(per, quantile(b, q))
		}
	}
	if len(per) == 0 {
		return quantile(all, q)
	}
	return median(per)
}

// slicedRate returns the median over whole slices of the window of
// (events completed in the slice × unit) / slice length, per second.
func slicedRate(events []timed, unit float64, window, slice time.Duration) float64 {
	n := int(window / slice)
	if n < 1 {
		n = 1
		slice = window
	}
	sums := make([]float64, n)
	for _, ev := range events {
		if j := int(ev.at / slice); j >= 0 && j < n {
			sums[j] += unit / slice.Seconds()
		}
	}
	return median(sums)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (ru_maxrss is KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
