package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles summarises a sample for the detail line.
func quartiles(xs []float64) map[string]float64 {
	return map[string]float64{"n": float64(len(xs)), "min": quantile(xs, 0), "p25": quantile(xs, 0.25),
		"p50": quantile(xs, 0.5), "p75": quantile(xs, 0.75), "p90": quantile(xs, 0.9), "max": quantile(xs, 1)}
}

// ms, us and secs convert durations to float64 samples in one unit.
func ms(ds []time.Duration) []float64   { return scaled(ds, time.Millisecond) }
func us(ds []time.Duration) []float64   { return scaled(ds, time.Microsecond) }
func secs(ds []time.Duration) []float64 { return scaled(ds, time.Second) }

func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sleepUntil sleeps until t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// cpuTime returns the CPU time the process has used, user plus system.
// Time the hypervisor stole from the machine's CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
