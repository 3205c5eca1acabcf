package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/validate"
)

// bulkSite is one source site of a bulk workload.
type bulkSite struct {
	name    string
	store   store.Store
	workers int // 0 makes a storage-only site
	roots   []string
}

// bulkSpec is a bulk workload: one job over every site, repeated.
type bulkSpec struct {
	sites     []bulkSite
	lib       *extractors.Library
	grouper   func(*extractors.Library) crawler.GroupingFunc
	validator validate.Validator
}

// noop applies to every file and returns constant-size metadata without
// reading content, so a step costs orchestration only.
type noop struct{}

func (noop) Name() string                { return "noop" }
func (noop) Container() string           { return "noop-container" }
func (noop) Applies(store.FileInfo) bool { return true }
func (noop) Extract(_ *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	return map[string]interface{}{"files": len(files)}, nil
}

// runBulkNoop: one job over 4 sites × 25,000 single-file families with a
// no-op extractor and every simulated cost at zero.
func runBulkNoop(cfg config) (*outcome, error) {
	const sites, files, perDir = 4, 25_000, 64
	rng := rand.New(rand.NewSource(cfg.seed))
	spec := bulkSpec{
		lib:       extractors.NewLibrary(noop{}),
		grouper:   crawler.SingleFileGrouper,
		validator: validate.Passthrough{},
	}
	for s := 0; s < sites; s++ {
		name := fmt.Sprintf("s%d", s)
		fs := store.NewMemFS(name, nil)
		for i := 0; i < files; i++ {
			data := make([]byte, 8+rng.Intn(56))
			rng.Read(data)
			if err := fs.Write(fmt.Sprintf("/%s/d%03d/f%05d.dat", name, i/perDir, i), data); err != nil {
				return nil, err
			}
		}
		spec.sites = append(spec.sites, bulkSite{name: name, store: fs, workers: 8, roots: []string{"/" + name}})
	}
	return runBulk(cfg, spec)
}

// runBulkMDF: the paper's MDF shape — two 8-worker compute sites and one
// storage-only archive whose families are staged to them over zero-cost
// links, 2,000 MDF groups each, matio grouper, default extractors, MDF
// validator.
func runBulkMDF(cfg config) (*outcome, error) {
	spec := bulkSpec{
		lib:       extractors.DefaultLibrary(),
		grouper:   crawler.MatIOGrouper,
		validator: validate.NewMDF("perfbench"),
	}
	for s, name := range []string{"c0", "c1", "arch"} {
		fs := store.NewMemFS(name, nil)
		if _, err := dataset.MaterializeMDF(fs, "/"+name, 2000, cfg.seed*10+int64(s)); err != nil {
			return nil, err
		}
		site := bulkSite{name: name, store: fs, roots: []string{"/" + name}}
		if name != "arch" {
			site.workers = 8
		}
		spec.sites = append(spec.sites, site)
	}
	return runBulk(cfg, spec)
}

// bulkRig is one bulk deployment with its job specs.
type bulkRig struct {
	d     *deploy.Deployment
	repos []core.RepoSpec
}

func buildBulk(spec bulkSpec, p *probe, o *oracle, dest *destStore) (*bulkRig, error) {
	lib := wrapLibrary(spec.lib, p, o)
	var sites []deploy.SiteSpec
	rig := &bulkRig{}
	for _, s := range spec.sites {
		sites = append(sites, deploy.SiteSpec{
			Name: s.name, Store: sourceStore{Store: s.store, p: p},
			Workers: s.workers,
		})
		rig.repos = append(rig.repos, core.RepoSpec{
			SiteName: s.name, Roots: s.roots, Grouper: wrapGrouper(p, s.name, spec.grouper(lib)),
		})
	}
	d, err := deploy.New(context.Background(), clock.NewReal(), sites, deploy.Options{
		Policy:    policy{inner: scheduler.LocalPolicy{}, p: p},
		Validator: validator{inner: spec.validator, p: p},
		Dest:      dest,
		Library:   lib,
	})
	if err != nil {
		return nil, err
	}
	rig.d = d
	return rig, nil
}

// bulkJob is one finished bulk job.
type bulkJob struct {
	stats core.JobStats
	// done50, done90 and makespan run from submit until half, nine
	// tenths and all of the job's documents were written.
	done50, done90, makespan time.Duration
	cpu                      time.Duration
	failed                   int64
}

// runBulkJob runs one job and waits until every family's document has
// arrived at the destination: the job is done then, not when RunJob
// returns, because validation is asynchronous.
func runBulkJob(rig *bulkRig, p *probe, o *oracle, dest *destStore) (bulkJob, error) {
	o.forget()
	dest.beginJob(true)
	cpu := cpuTime()
	submit := p.now()
	stats, err := rig.d.Service.RunJob(context.Background(), rig.repos)
	if err != nil {
		return bulkJob{}, fmt.Errorf("bulk job: %w", err)
	}
	want := stats.Crawl.FamiliesEmitted - stats.FamiliesFailed
	dest.await(want, time.Minute)
	job := bulkJob{stats: stats, cpu: cpuTime() - cpu}
	if t := dest.arrivals(); len(t) > 0 {
		at := func(q float64) time.Duration { return time.Duration(t[int(q*float64(len(t)-1))] - submit) }
		job.done50, job.done90, job.makespan = at(0.5), at(0.9), at(1)
	}
	if p.enabled() {
		p.endJob()
	}
	if n := dest.writes.Load(); n > want {
		o.fail("job %s: %d documents for %d families", stats.JobID, n, want)
	}
	if got := dest.steps.Load(); got != stats.StepsProcessed-stats.StepsFailed {
		o.fail("job %s: documents carry %d steps, job completed %d", stats.JobID, got, stats.StepsProcessed-stats.StepsFailed)
	}
	job.failed = stats.FamiliesFailed
	return job, nil
}

// bulkPass repeats the job until the window has elapsed.
type bulkPass struct {
	use   usage
	jobs  []bulkJob
	sum   core.JobStats
	tasks int64
}

func (b *bulkPass) steps() float64 { return float64(b.sum.StepsProcessed) }

func (b *bulkPass) families() int64 { return b.sum.Crawl.FamiliesEmitted }

func (b *bulkPass) failed() int64 {
	var n int64
	for _, j := range b.jobs {
		n += j.failed
	}
	return n
}

func runBulkPass(rig *bulkRig, window time.Duration, p *probe, o *oracle, dest *destStore) (*bulkPass, error) {
	pass := &bulkPass{}
	tasks0 := rig.d.FaaS.TasksSubmitted.Value()
	m := startMeter()
	for len(pass.jobs) == 0 || time.Since(m.start) < window {
		job, err := runBulkJob(rig, p, o, dest)
		if err != nil {
			return nil, err
		}
		pass.jobs = append(pass.jobs, job)
		addStats(&pass.sum, job.stats)
	}
	pass.use = m.stop()
	pass.tasks = rig.d.FaaS.TasksSubmitted.Value() - tasks0
	return pass, nil
}

// addStats accumulates the JobStats counters the benchmark reports.
func addStats(sum *core.JobStats, s core.JobStats) {
	sum.Crawl.FamiliesEmitted += s.Crawl.FamiliesEmitted
	sum.FamiliesDone += s.FamiliesDone
	sum.FamiliesFailed += s.FamiliesFailed
	sum.StepsProcessed += s.StepsProcessed
	sum.StepsFailed += s.StepsFailed
	sum.TasksResubmitted += s.TasksResubmitted
	sum.StepsRetried += s.StepsRetried
	sum.BytesStaged += s.BytesStaged
	sum.CacheHits += s.CacheHits
	sum.CacheMisses += s.CacheMisses
	sum.PumpWakeups += s.PumpWakeups
}

func runBulk(cfg config, spec bulkSpec) (*outcome, error) {
	p := newProbe()
	o := newOracle()
	dest := newDestStore(o, p)
	heap0 := heapAfterGC()
	setup, rig, err := timeSetup(func() (*bulkRig, error) { return buildBulk(spec, p, o, dest) },
		func(r *bulkRig) { r.d.Close() })
	if err != nil {
		return nil, err
	}
	defer rig.d.Close()
	// The untimed warm-up is one full job. The post-GC heap after it, less
	// the heap before the first deployment, is the retained-heap figure: a
	// fixed amount of work, so it does not depend on how many jobs fit in
	// the window. The oracle's and destination's maps are dropped first so
	// only the program's memory counts.
	if _, err := runBulkJob(rig, p, o, dest); err != nil {
		return nil, err
	}
	o.release()
	dest.release()
	retained := (float64(heapAfterGC()) - float64(heap0)) / 1e6

	oc := &outcome{metrics: metrics{}}
	if !cfg.trace {
		pass, err := runBulkPass(rig, cfg.window, p, o, dest)
		if err != nil {
			return nil, err
		}
		// Per-job figures, reported as medians over the window's jobs.
		var rates, cpus, p50s, p90s []float64
		for _, j := range pass.jobs {
			steps := float64(j.stats.StepsProcessed)
			rates = append(rates, steps/j.makespan.Seconds())
			cpus = append(cpus, float64(j.cpu)/1e3/steps)
			p50s = append(p50s, float64(j.done50)/1e6)
			p90s = append(p90s, float64(j.done90)/1e6)
		}
		m := oc.metrics
		m.set("setup_s", "s", setup)
		m.set("steps_per_s", "steps/s", median(rates))
		m.set("cpu_us_per_step", "us/step", median(cpus))
		m.set("allocs_per_step", "allocs/step", float64(pass.use.allocs)/pass.steps())
		m.set("heap_retained_mb", "MB", retained)
		m.set("job_p50_ms", "ms", median(p50s))
		m.set("job_p90_ms", "ms", median(p90s))
		oc.attempted, oc.failed = pass.families(), pass.failed()
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d jobs, %d steps in %v\n",
			cfg.workload, cfg.seed, len(pass.jobs), pass.sum.StepsProcessed, pass.use.wall.Round(time.Millisecond))
	} else {
		half := cfg.window / 2
		plain, err := runBulkPass(rig, half, p, o, dest)
		if err != nil {
			return nil, err
		}
		var traced *bulkPass
		tr, err := traceRun(cfg, p, rig.d, func() error {
			traced, err = runBulkPass(rig, half, p, o, dest)
			return err
		})
		if err != nil {
			return nil, err
		}
		jobs := float64(len(traced.jobs))
		in := layerInputs{
			jobs: jobs, steps: traced.steps(), sum: traced.sum, tasks: float64(traced.tasks),
		}
		oc.metrics = tr.layers(in)
		tracedCPU := float64(traced.use.cpu) / traced.steps()
		plainCPU := float64(plain.use.cpu) / plain.steps()
		oc.metrics.set("trace.cpu_overhead_pct", "%", 100*(tracedCPU/plainCPU-1))
		tracedRate := traced.steps() / traced.use.wall.Seconds()
		plainRate := plain.steps() / plain.use.wall.Seconds()
		oc.metrics.set("trace.e2e_overhead_pct", "%", 100*(plainRate/tracedRate-1))
		oc.attempted = plain.families() + traced.families()
		oc.failed = plain.failed() + traced.failed()
		if err := tr.write(oc.metrics); err != nil {
			return nil, err
		}
	}
	oc.mismatches, oc.first = o.mismatches.Load(), o.firstMismatch()
	oc.failed += oc.mismatches
	return oc, nil
}
