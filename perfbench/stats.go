package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is a process resource snapshot: CPU (user+sys), peak RSS and the
// Go allocator counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	maxRSS  int64 // bytes
	alloc   uint64
	mallocs uint64
	gcCPU   float64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  ru.Maxrss * 1024,
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcCPU:   ms.GCCPUFraction,
	}
}

// window is the resource delta between two snapshots, plus the peak
// resident set in between.
type window struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
	gcCPUFraction  float64
	peakRSSMB      float64
}

// meter measures one timed window. Besides the snapshot deltas it takes
// the exact peak resident set of the window from the kernel (see
// resetPeakRSS), so max_rss_mb is the peak while the workload runs, not a
// set-up or verification spike, and no sampler runs inside the window.
type meter struct{ u0 usage }

func startMeter() *meter {
	resetPeakRSS()
	return &meter{u0: snapshot()}
}

func (m *meter) end() window {
	w := between(m.u0, snapshot())
	w.peakRSSMB = peakRSSMB()
	return w
}

// resetPeakRSS resets the process's resident-set high-water mark (VmHWM)
// by writing 5 to /proc/self/clear_refs.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the resident-set high-water mark since the last
// resetPeakRSS. Without /proc it falls back to the process-lifetime peak
// from getrusage.
func peakRSSMB() float64 {
	if kb, ok := vmHWM(); ok {
		return float64(kb) / (1 << 10)
	}
	return float64(snapshot().maxRSS) / (1 << 20)
}

// vmHWM reads the resident-set high-water mark in KiB from
// /proc/self/status.
func vmHWM() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

func between(a, b usage) window {
	return window{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		alloc:   b.alloc - a.alloc,
		mallocs: b.mallocs - a.mallocs,
		// GCCPUFraction is cumulative since process start; the end value
		// is the best available estimate for a window that dominates the
		// process lifetime.
		gcCPUFraction: b.gcCPU,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostProbe times a fixed floating-point loop that touches no repository
// code, so host speed drift sits next to the numbers without entering any
// metric.
func hostProbe() float64 {
	start := time.Now()
	x, y := 1.0, 0.5
	for i := 0; i < 30_000_000; i++ {
		x = x*1.0000001 + y*1e-9
		y = y*0.9999999 + 1e-12
	}
	if x == 0 {
		panic("unreachable: keeps the loop live")
	}
	return ms(time.Since(start))
}
