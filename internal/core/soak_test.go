package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/obs"
	"xtract/internal/scheduler"
)

// retainedHeap reports the live heap after two full collections (the
// second clears what sync.Pools kept alive through the first).
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakHeapFlatAcrossJobs runs many jobs through one Service and
// checks that the heap it retains does not grow with the number of steps
// it has ever run. Every bounded structure is sized to fill during the
// warm-up (a two-job, 16-event tracer ring; a cache holding the whole
// corpus), so anything still growing afterwards is per-step state that
// outlives its job. Jobs after the first are served from the result
// cache: every step still passes through the pump's completion path,
// but no FaaS task record is created.
func TestSoakHeapFlatAcrossJobs(t *testing.T) {
	const (
		dirs, filesPerDir = 40, 25
		warmupJobs        = 4
		measuredJobs      = 20
		// maxBytesPerStep bounds retained-heap growth per step between
		// the end of the warm-up and the last job. Per-job records (the
		// registry's job table) amortise to about 2 B/step at this size;
		// a sample store keeping one point per step costs about 20, and a
		// finished job's family queue kept alive by its visibility timer
		// about 12.
		maxBytesPerStep = 8
	)
	o := &obs.Observer{Metrics: obs.NewRegistry(), Events: obs.NewTracer(nil, 2, 16)}
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{},
		func(cfg *Config) {
			cfg.Cache = cache.New(0)
			cfg.Obs = o
		})
	defer h.close()
	fs := h.sites["theta"]
	for d := 0; d < dirs; d++ {
		for f := 0; f < filesPerDir; f++ {
			body := fmt.Sprintf("soak corpus directory %d file %d keyword text", d, f)
			if err := fs.Write(fmt.Sprintf("/soak/d%02d/f%02d.txt", d, f), []byte(body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	repo := []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/soak"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}}
	run := func() int64 {
		t.Helper()
		stats, err := h.svc.RunJob(context.Background(), repo)
		if err != nil {
			t.Fatal(err)
		}
		if stats.FamiliesDone != dirs*filesPerDir || stats.FamiliesFailed != 0 {
			t.Fatalf("job not clean: %+v", stats)
		}
		h.valsvc.Drain()
		return stats.StepsProcessed
	}

	for i := 0; i < warmupJobs; i++ {
		run()
	}
	before := retainedHeap()
	var steps int64
	for i := 0; i < measuredJobs; i++ {
		steps += run()
	}
	after := retainedHeap()

	growth := float64(int64(after)-int64(before)) / float64(steps)
	t.Logf("retained heap %d -> %d B over %d steps: %.1f B/step", before, after, steps, growth)
	if growth > maxBytesPerStep {
		t.Fatalf("retained heap grew %.1f B/step over %d jobs (bound %d): per-step state outlives its job",
			growth, measuredJobs, maxBytesPerStep)
	}
}
