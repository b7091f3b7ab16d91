package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is a timing reported as a median together with the number of
// values it was taken over.
type sample struct {
	median float64
	n      int
}

func summarize(xs []float64) sample { return sample{median: median(xs), n: len(xs)} }

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's high-water resident set (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// finite maps NaN and ±Inf (not representable in JSON) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's CPUs so far (the steal column of /proc/stat), or 0 where it
// is not reported. Printed with every run: on a shared host it explains
// timings that move without any change to the program.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}
