package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// failedLatencyMS stands for the latency of a failed or refused job: it
// misses every limit, and sorts above every real latency.
const failedLatencyMS = 1e9

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapAfterGC is the live heap after two full collections: the second
// frees what sync.Pool victim caches kept alive through the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// meter brackets a measured window: wall time, CPU time, allocations.
type meter struct {
	start  time.Time
	cpu    time.Duration
	allocs uint64
}

func startMeter() meter { return meter{start: time.Now(), cpu: cpuTime(), allocs: mallocs()} }

// usage is what a meter measured.
type usage struct {
	wall, cpu time.Duration
	allocs    uint64
}

func (m meter) stop() usage {
	return usage{wall: time.Since(m.start), cpu: cpuTime() - m.cpu, allocs: mallocs() - m.allocs}
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (xs is sorted in place); 0 for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[hi] >= failedLatencyMS {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupReps is how many times a run builds its deployment to time
// set-up; the median is reported.
const setupReps = 15

// timeSetup builds the deployment setupReps times, tearing down all but
// the last, and returns the median build time in seconds with the kept
// deployment. A collection before each build keeps earlier garbage from
// landing in the timing.
func timeSetup[T any](build func() (T, error), teardown func(T)) (float64, T, error) {
	var kept T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, kept, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return median(times), kept, nil
}
