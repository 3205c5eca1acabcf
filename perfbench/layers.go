package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/queue"
)

// layerInputs are the public counters a workload read over its traced
// pass, next to what the probe recorded.
type layerInputs struct {
	jobs, steps float64
	sum         core.JobStats
	tasks       float64 // faas.Service.TasksSubmitted delta

	journalAppends, journalFsyncs float64
	cacheHits, cacheMisses        float64

	submitMS    []float64
	statusCalls float64
	refused     float64
	jobP99MS    float64
	genLateMS   float64
}

// tracer is one traced pass: spans and aggregates in the probe, queue
// samples, and a CPU profile folded by module.
type tracer struct {
	p      *probe
	dir    string
	queues *queueSampler
	shares map[string]float64
	hop    float64
}

// traceRun runs body with the probe on, sampling the deployment's queues
// and profiling the CPU, and folds the profile.
func traceRun(cfg config, p *probe, d *deploy.Deployment, body func() error) (*tracer, error) {
	dir := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	prof := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	p.reset()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	qs := sampleQueues(map[string]*queue.Queue{
		"families": d.Queues.Families, "prefetch": d.Queues.Prefetch,
		"prefetch_done": d.Queues.PrefetchDone, "results": d.Queues.Results,
	})
	p.on.Store(true)
	err = body()
	p.on.Store(false)
	qs.finish()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t := &tracer{p: p, dir: dir, queues: qs}
	t.shares, t.hop, err = foldProfile(prof)
	return t, err
}

// layers derives the per-layer table. Counts and busy times are per job
// (mean over the pass's jobs); waits are percentiles over every sample.
func (t *tracer) layers(in layerInputs) metrics {
	m := metrics{}
	c := t.p.count
	q := t.p.quantile
	perJob := func(v float64) float64 { return ratio(v, in.jobs) }

	m.set("store.list_calls", "count/job", perJob(c("store.list_calls")))
	m.set("store.read_calls", "count/job", perJob(c("store.read_calls")))
	m.set("store.read_bytes", "bytes/job", perJob(c("store.read_bytes")))
	m.set("store.list_ms", "ms/job", perJob(c("store.list_ms")))
	m.set("store.read_ms", "ms/job", perJob(c("store.read_ms")))

	m.set("crawler.group_calls", "count/job", perJob(c("crawler.group_calls")))
	m.set("crawler.group_ms", "ms/job", perJob(c("crawler.group_ms")))
	m.set("crawler.families", "count/job", perJob(float64(in.sum.Crawl.FamiliesEmitted)))
	m.set("crawler.span_ms", "ms/job", perJob(c("crawler.span_ms")))

	m.set("core.intake_wait_ms_p50", "ms", q("core.intake_wait_ms", 0.5))
	m.set("core.intake_wait_ms_p99", "ms", q("core.intake_wait_ms", 0.99))
	m.set("core.wakeups_per_step", "count/step", ratio(float64(in.sum.PumpWakeups), in.steps))
	m.set("core.resubmits", "count/job", perJob(float64(in.sum.TasksResubmitted)))
	m.set("core.retries", "count/job", perJob(float64(in.sum.StepsRetried)))

	m.set("scheduler.place_calls", "count/job", perJob(c("scheduler.place_calls")))
	m.set("scheduler.place_us_p50", "us", q("scheduler.place_us", 0.5))

	m.set("faas.dispatch_wait_ms_p50", "ms", q("faas.dispatch_wait_ms", 0.5))
	m.set("faas.dispatch_wait_ms_p99", "ms", q("faas.dispatch_wait_ms", 0.99))
	m.set("faas.tasks_submitted", "count/job", perJob(in.tasks))
	m.set("faas.useful_ratio", "steps/task", ratio(in.steps, in.tasks))

	m.set("transfer.offload_wait_ms_p50", "ms", q("transfer.offload_wait_ms", 0.5))
	m.set("transfer.offload_wait_ms_p99", "ms", q("transfer.offload_wait_ms", 0.99))
	m.set("transfer.bytes_staged", "bytes/job", perJob(float64(in.sum.BytesStaged)))

	m.set("extractors.calls", "count/job", perJob(c("extractors.calls")))
	m.set("extractors.exec_ms", "ms/job", perJob(c("extractors.exec_ms")))
	m.set("extractors.exec_ms_p99", "ms", q("extractors.exec_ms", 0.99))

	m.set("validate.result_wait_ms_p50", "ms", q("validate.result_wait_ms", 0.5))
	m.set("validate.result_wait_ms_p99", "ms", q("validate.result_wait_ms", 0.99))
	m.set("validate.calls", "count/job", perJob(c("validate.calls")))
	m.set("validate.ms", "ms/job", perJob(c("validate.ms")))
	m.set("validate.dest_write_ms", "ms/job", perJob(c("validate.dest_write_ms")))
	m.set("validate.rejected", "count/job", perJob(c("validate.rejected")))

	for _, name := range queueNames {
		m.set("queue."+name+".depth_max", "count", t.queues.depth[name])
		m.set("queue."+name+".oldest_ms_max", "ms", t.queues.oldest[name])
	}

	m.set("journal.writes", "count/job", perJob(c("journal.writes")))
	m.set("journal.bytes", "bytes/job", perJob(c("journal.bytes")))
	m.set("journal.syncs", "count/job", perJob(c("journal.syncs")))
	m.set("journal.sync_ms_p50", "ms", q("journal.sync_ms", 0.5))
	m.set("journal.sync_ms_p99", "ms", q("journal.sync_ms", 0.99))
	m.set("journal.records_per_sync", "records/sync", ratio(in.journalAppends, in.journalFsyncs))

	m.set("cache.hits", "count/job", perJob(in.cacheHits))
	m.set("cache.misses", "count/job", perJob(in.cacheMisses))
	m.set("cache.hit_ratio", "ratio", ratio(in.cacheHits, in.cacheHits+in.cacheMisses))

	m.set("api.submit_ms_p50", "ms", quantile(in.submitMS, 0.5))
	m.set("api.submit_ms_p99", "ms", quantile(in.submitMS, 0.99))
	m.set("api.status_calls_per_job", "count/job", perJob(in.statusCalls))
	m.set("api.refused", "count", in.refused)
	m.set("api.job_p99_ms", "ms", in.jobP99MS)
	m.set("gen_late_ms_max", "ms", in.genLateMS)

	for _, mod := range profileModules {
		m.set("cpu_share."+mod, "%", t.shares[mod])
	}
	m.set("cpu_share.family_json_hop", "%", t.hop)

	t.p.mu.Lock()
	m.set("trace.spans", "count", float64(len(t.p.spans)))
	m.set("trace.spans_dropped", "count", float64(t.p.dropped))
	t.p.mu.Unlock()
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write saves the spans and the per-layer table next to the profile.
func (t *tracer) write(m metrics) error {
	kept, dropped, err := t.p.writeSpans(filepath.Join(t.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	table, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dir, "layers.json"), table, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace in %s (%d spans kept, %d dropped)\n", t.dir, kept, dropped)
	return nil
}

var queueNames = []string{"families", "prefetch", "prefetch_done", "results"}

// queueSampler polls queue depth (visible plus in flight) and the age of
// the oldest visible message every millisecond, keeping the maxima.
type queueSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	depth  map[string]float64
	oldest map[string]float64
}

func sampleQueues(qs map[string]*queue.Queue) *queueSampler {
	s := &queueSampler{stop: make(chan struct{}), depth: map[string]float64{}, oldest: map[string]float64{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for name, q := range qs {
				if d := float64(q.Len() + q.InFlight()); d > s.depth[name] {
					s.depth[name] = d
				}
				if a := float64(q.OldestAge()) / 1e6; a > s.oldest[name] {
					s.oldest[name] = a
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler; its maxima are safe to read afterwards.
func (s *queueSampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// profileModules are the cpu_share buckets: each internal module, gc
// (collector and assists), bench (this program's wrappers, oracle and
// load generator) and other (runtime, standard library and network code
// with no module frame on the stack).
var profileModules = []string{
	"api", "auth", "cache", "clock", "core", "crawler", "dedup", "extractors",
	"faas", "family", "fastjson", "journal", "metrics", "obs", "queue",
	"registry", "scheduler", "sdk", "store", "tenant", "transfer", "validate",
	"gc", "bench", "other",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.GC",
}

// foldProfile reads a CPU profile with `go tool pprof -traces` and folds
// each sample onto the innermost frame that belongs to an internal module
// or to this program. It also returns the share of samples in the
// crawler → pump family JSON hop.
func foldProfile(path string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	var total, hop float64
	var frames []string
	var value float64
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += value
		shares[bucketOf(frames)] += value
		if inHop(frames) {
			hop += value
		}
		frames = frames[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, "  ") {
			continue
		}
		if len(frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // a label line
			}
			value = float64(d)
			frames = append(frames, fields[1])
			continue
		}
		if len(frames) > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	for k := range shares {
		shares[k] = 100 * ratio(shares[k], total)
	}
	return shares, 100 * ratio(hop, total), nil
}

// bucketOf names the cpu_share bucket of one stack (innermost first).
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(f, "xtract/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			if slices.Contains(profileModules, mod) {
				return mod
			}
			return "other"
		}
	}
	return "other"
}

// inHop reports a stack inside the crawler's family encode or the pump's
// family decode.
func inHop(frames []string) bool {
	var json, crawl, intake bool
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "encoding/json."):
			json = true
		case strings.HasPrefix(f, "xtract/internal/crawler.(*Crawler).processDir"):
			crawl = true
		case strings.HasPrefix(f, "xtract/internal/core.(*pump).intakeFamilies"):
			intake = true
		}
	}
	return json && (crawl || intake)
}
