package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) and the number of
// samples strictly beyond its rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - rank - 1
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// ratio is a/b, zero when b is zero (a layer that saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memWindow measures the Go runtime across a measured phase: bytes
// allocated, GC cycles and GC pause.
type memWindow struct{ before runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (w *memWindow) stop() memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - w.before.TotalAlloc,
		gcCycles:   after.NumGC - w.before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - w.before.PauseTotalNs),
	}
}

// retainedHeapMB forces collections and returns the live heap. The second
// cycle frees what the first only moved to sync.Pool victim caches.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
