package main

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/validate"
)

// serve-mixed parameters.
const (
	// arrivalRate is the open-loop job arrival rate (Poisson), about
	// half of what two cores sustain.
	arrivalRate = 50.0
	// hotSubtrees are pre-warmed subtrees that half the jobs re-submit.
	hotSubtrees = 8
	// groupsPerJob is the MDF subtree size each job covers.
	groupsPerJob = 20
	// pollInterval is the SDK status poll period; it bounds the
	// resolution of job latency.
	pollInterval = 2 * time.Millisecond
	// maxLateness marks a run invalid: the generator fell behind when a
	// submission started this long after it was due.
	maxLateness = 500 * time.Millisecond
	tenants     = 4
	cacheSize   = 4096
)

// arrival is one scheduled job.
type arrival struct {
	due    time.Duration // offset from the pass start
	root   string
	tenant int
}

// schedule draws a pass's arrivals: exponential gaps at arrivalRate,
// alternating between a hot job (one of the pre-warmed subtrees, at
// random) and a fresh one, so every stretch of the pass has the same mix.
func schedule(rng *rand.Rand, window time.Duration, fresh *int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / arrivalRate * float64(time.Second))
		if t >= window {
			return out
		}
		a := arrival{due: t, tenant: rng.Intn(tenants)}
		if len(out)%2 == 0 {
			a.root = fmt.Sprintf("/hot/h%d", rng.Intn(hotSubtrees))
		} else {
			a.root = fmt.Sprintf("/fresh/f%05d", *fresh)
			*fresh++
		}
		out = append(out, a)
	}
}

// server is one in-process `xtract serve` equivalent on loopback.
type server struct {
	d       *deploy.Deployment
	jnl     *journal.Journal
	jdir    string
	hs      *http.Server
	clients []*sdk.XtractClient // one per tenant token
	hc      *http.Client
}

func (s *server) close() {
	s.hs.Close()
	s.d.Close()
	s.jnl.Close()
	s.hc.CloseIdleConnections()
	os.RemoveAll(s.jdir)
}

// startServer deploys one site over src with auth, tenancy, the result
// cache and a journal on the real disk, and serves the REST API on a
// loopback port. It returns once an authenticated request has succeeded.
func startServer(src store.Store, jdir string, p *probe, o *oracle, dest store.Store) (*server, error) {
	clk := clock.NewReal()
	if err := os.RemoveAll(jdir); err != nil {
		return nil, err
	}
	od, err := journal.OSDir(jdir)
	if err != nil {
		return nil, err
	}
	jnl, err := journal.Open(journalDir{Dir: od, p: p}, journal.Options{Clock: clk})
	if err != nil {
		return nil, err
	}
	ctl := tenant.NewController(tenant.Config{Clock: clk})
	issuer := auth.NewIssuer([]byte("perfbench-signing-key"), clk)
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "local", Store: sourceStore{Store: src, p: p}, Workers: 8},
	}, deploy.Options{
		Policy:        policy{inner: scheduler.LocalPolicy{}, p: p},
		Validator:     validator{inner: validate.Passthrough{}, p: p},
		Dest:          dest,
		Library:       wrapLibrary(extractors.DefaultLibrary(), p, o),
		CacheCapacity: cacheSize,
		Journal:       jnl,
		Tenants:       ctl,
	})
	if err != nil {
		jnl.Close()
		return nil, err
	}
	srv := api.NewServer(d.Service, d.Registry, d.Library, issuer)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	srv.SetTenants(ctl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		jnl.Close()
		return nil, err
	}
	s := &server{d: d, jnl: jnl, jdir: jdir, hs: &http.Server{Handler: srv.Handler()}}
	go s.hs.Serve(ln) // returns when close calls hs.Close
	// No more connections than cores: the client side must not be what
	// limits the open loop.
	n := runtime.NumCPU()
	s.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
	}}
	url := "http://" + ln.Addr().String()
	scopes := []string{auth.ScopeCrawl, auth.ScopeExtract, auth.ScopeValidate}
	for t := 0; t < tenants; t++ {
		tok := issuer.Issue(fmt.Sprintf("tenant%d", t), scopes, 24*time.Hour)
		s.clients = append(s.clients, sdk.New(url, tok, sdk.WithHTTPClient(s.hc)))
	}
	if _, err := s.clients[0].Sites(); err != nil {
		s.close()
		return nil, fmt.Errorf("server not up: %w", err)
	}
	return s, nil
}

// jobRun is one job of the open loop.
type jobRun struct {
	arrival
	id       string
	submitMS float64
	polls    int
	latMS    float64 // due → SDK saw the job terminal
	failed   bool
	refused  bool
	status   api.JobStatus
}

// loop is the open-loop generator: a time-ordered queue of submissions
// and status polls served by at most nproc goroutines, each blocking on
// one HTTP call at a time.
type loop struct {
	srv   *server
	p     *probe
	start time.Time

	mu        sync.Mutex
	events    eventHeap
	remaining int
	wake      chan struct{}
	lateMax   time.Duration
}

type event struct {
	at  time.Time
	job *jobRun
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; e := old[len(old)-1]; *h = old[:len(old)-1]; return e }

func (l *loop) push(ev event) {
	l.mu.Lock()
	heap.Push(&l.events, ev)
	head := l.events[0].job == ev.job
	l.mu.Unlock()
	if head {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// next blocks until the earliest event is due; false once every job is
// terminal.
func (l *loop) next(timer *time.Timer) (event, bool) {
	for {
		l.mu.Lock()
		if l.remaining == 0 {
			l.mu.Unlock()
			// Pass the wakeup on so every worker sees the end.
			select {
			case l.wake <- struct{}{}:
			default:
			}
			return event{}, false
		}
		wait := time.Millisecond
		if len(l.events) > 0 {
			wait = time.Until(l.events[0].at)
			if wait <= 0 {
				ev := heap.Pop(&l.events).(event)
				l.mu.Unlock()
				return ev, true
			}
		}
		l.mu.Unlock()
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-l.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

func (l *loop) finish(j *jobRun, failed bool) {
	now := time.Now()
	j.failed = failed
	j.latMS = float64(now.Sub(l.start.Add(j.due))) / 1e6
	if failed {
		j.latMS = failedLatencyMS
	}
	l.mu.Lock()
	l.remaining--
	l.mu.Unlock()
}

// span records one SDK call when the probe is on.
func (l *loop) span(name, trace string, start time.Time) {
	if !l.p.enabled() {
		return
	}
	end := l.p.now()
	l.p.mu.Lock()
	l.p.spanLocked(name, trace, 0, int64(start.Sub(l.p.base)), end)
	l.p.mu.Unlock()
}

// step performs one due event: a submission or a status poll.
func (l *loop) step(ev event) {
	j := ev.job
	client := l.srv.clients[j.tenant]
	if j.id == "" {
		late := time.Since(ev.at)
		l.mu.Lock()
		if late > l.lateMax {
			l.lateMax = late
		}
		l.mu.Unlock()
		start := time.Now()
		id, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
			Site: "local", Roots: []string{j.root}, Grouper: "matio",
		}}})
		j.submitMS = float64(time.Since(start)) / 1e6
		l.span("api.submit", j.root, start)
		if err != nil {
			var ae *sdk.APIError
			j.refused = errors.As(err, &ae) && (ae.IsQuota() || ae.IsOverloaded())
			l.finish(j, true)
			return
		}
		j.id = id
		l.push(event{at: time.Now().Add(pollInterval), job: j})
		return
	}
	start := time.Now()
	st, err := client.JobStatus(j.id)
	l.span("api.status", j.id, start)
	j.polls++
	if err != nil {
		l.finish(j, true)
		return
	}
	if !st.Complete {
		l.push(event{at: time.Now().Add(pollInterval), job: j})
		return
	}
	j.status = st
	l.finish(j, st.State != string(registry.JobComplete) || st.Stats == nil || st.Err != "")
}

// runLoop drives the arrivals through the server and returns once every
// job is terminal.
func runLoop(srv *server, p *probe, arrivals []arrival) ([]*jobRun, time.Duration) {
	l := &loop{srv: srv, p: p, remaining: len(arrivals), wake: make(chan struct{}, 1)}
	jobs := make([]*jobRun, len(arrivals))
	l.start = time.Now().Add(5 * time.Millisecond)
	for i, a := range arrivals {
		jobs[i] = &jobRun{arrival: a}
		heap.Push(&l.events, event{at: l.start.Add(a.due), job: jobs[i]})
	}
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				ev, ok := l.next(timer)
				if !ok {
					return
				}
				l.step(ev)
			}
		}()
	}
	wg.Wait()
	return jobs, l.lateMax
}

// servePass is one measured pass of the open loop.
type servePass struct {
	use     usage
	jobs    []*jobRun
	lateMax time.Duration
	steps   float64
	failed  int64
	lat     []float64
	sum     core.JobStats
}

// subWindows splits a pass by due time for its latency figures.
const subWindows = 20

// latency reports the job latency p50 and p90 of the quietest
// sub-window: the lowest of the sub-windows' p50s and of their p90s.
// Interference from outside the process (other tenants of the machine)
// only adds latency and comes and goes within a run, so the least
// disturbed sub-window is the steadiest view of the program itself; a
// change to the program moves every sub-window.
func (s *servePass) latency() (p50, p90 float64) {
	var last time.Duration
	for _, j := range s.jobs {
		if j.due > last {
			last = j.due
		}
	}
	p50, p90 = math.Inf(1), math.Inf(1)
	for k := 0; k < subWindows; k++ {
		var lat []float64
		for _, j := range s.jobs {
			if int(int64(j.due)*subWindows/int64(last+1)) == k {
				lat = append(lat, j.latMS)
			}
		}
		p50 = math.Min(p50, quantile(lat, 0.5))
		p90 = math.Min(p90, quantile(lat, 0.9))
	}
	return p50, p90
}

func runServePass(srv *server, p *probe, o *oracle, dest *destStore, arrivals []arrival) (*servePass, error) {
	dest.beginJob(false)
	m := startMeter()
	jobs, late := runLoop(srv, p, arrivals)
	pass := &servePass{jobs: jobs, lateMax: late}
	for _, j := range jobs {
		pass.lat = append(pass.lat, j.latMS)
		if j.failed {
			pass.failed++
			continue
		}
		addStats(&pass.sum, *j.status.Stats)
	}
	// Validation is asynchronous: the pass ends when every family of
	// every finished job has its document.
	dest.await(pass.sum.Crawl.FamiliesEmitted, 30*time.Second)
	pass.use = m.stop()
	if n := dest.writes.Load(); n > pass.sum.Crawl.FamiliesEmitted {
		o.fail("%d documents for %d families", n, pass.sum.Crawl.FamiliesEmitted)
	}
	pass.steps = float64(pass.sum.StepsProcessed)
	if pass.lateMax > maxLateness {
		return nil, fmt.Errorf("invalid run: the generator fell behind by %v (limit %v)", pass.lateMax, maxLateness)
	}
	return pass, nil
}

// warmUp runs each hot subtree once (filling the cache) and a few fresh
// warm-up subtrees, one job at a time, and waits for their documents.
func warmUp(srv *server, dest *destStore, roots []string) error {
	dest.beginJob(false)
	var families int64
	for i, root := range roots {
		c := srv.clients[i%tenants]
		id, err := c.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{root}, Grouper: "matio"}}})
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		st, err := c.WaitJob(id, pollInterval, 30*time.Second)
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if st.State != string(registry.JobComplete) || st.Stats == nil {
			return fmt.Errorf("warm-up job %s ended %s: %s", id, st.State, st.Err)
		}
		families += st.Stats.Crawl.FamiliesEmitted
	}
	dest.await(families, 30*time.Second)
	return nil
}

// serveCorpus materializes the hot, warm-up and fresh subtrees.
func serveCorpus(seed int64, fresh int) (*store.MemFS, []string, error) {
	fs := store.NewMemFS("local", nil)
	var warm []string
	for i := 0; i < hotSubtrees; i++ {
		root := fmt.Sprintf("/hot/h%d", i)
		warm = append(warm, root)
		if _, err := dataset.MaterializeMDF(fs, root, groupsPerJob, seed*7919+int64(i)); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < 8; i++ {
		root := fmt.Sprintf("/warm/w%d", i)
		warm = append(warm, root)
		if _, err := dataset.MaterializeMDF(fs, root, groupsPerJob, seed*7919+1000+int64(i)); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < fresh; i++ {
		if _, err := dataset.MaterializeMDF(fs, fmt.Sprintf("/fresh/f%05d", i), groupsPerJob, seed*7919+100_000+int64(i)); err != nil {
			return nil, nil, err
		}
	}
	return fs, warm, nil
}

func runServeMixed(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	fresh := 0
	var passes [][]arrival
	if cfg.trace {
		passes = append(passes, schedule(rng, cfg.window/2, &fresh), schedule(rng, cfg.window/2, &fresh))
	} else {
		passes = append(passes, schedule(rng, cfg.window, &fresh))
	}
	src, warm, err := serveCorpus(cfg.seed, fresh)
	if err != nil {
		return nil, err
	}
	p := newProbe()
	o := newOracle()
	dest := newDestStore(o, p)
	scratch := filepath.Join(cfg.out, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	heap0 := heapAfterGC()
	rep := 0
	setup, srv, err := timeSetup(func() (*server, error) {
		rep++
		return startServer(src, filepath.Join(scratch, fmt.Sprintf("journal-%d", rep)), p, o, dest)
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	if err := warmUp(srv, dest, warm); err != nil {
		return nil, err
	}

	oc := &outcome{metrics: metrics{}}
	if !cfg.trace {
		pass, err := runServePass(srv, p, o, dest, passes[0])
		if err != nil {
			return nil, err
		}
		o.release()
		dest.release()
		heap := heapAfterGC()
		m := oc.metrics
		m.set("setup_s", "s", setup)
		m.set("steps_per_s", "steps/s", pass.steps/pass.use.wall.Seconds())
		m.set("cpu_us_per_step", "us/step", float64(pass.use.cpu)/1e3/pass.steps)
		m.set("allocs_per_step", "allocs/step", float64(pass.use.allocs)/pass.steps)
		m.set("heap_retained_mb", "MB", (float64(heap)-float64(heap0))/1e6)
		p50, p90 := pass.latency()
		m.set("job_p50_ms", "ms", p50)
		m.set("job_p90_ms", "ms", p90)
		oc.attempted, oc.failed = int64(len(pass.jobs)), pass.failed
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d jobs, %d steps, generator late by at most %v\n",
			cfg.workload, cfg.seed, len(pass.jobs), pass.sum.StepsProcessed, pass.lateMax.Round(time.Microsecond))
	} else {
		plain, err := runServePass(srv, p, o, dest, passes[0])
		if err != nil {
			return nil, err
		}
		var traced *servePass
		j0, f0, _ := srv.jnl.Stats()
		c0, _ := srv.d.Service.CacheStats()
		tasks0 := srv.d.FaaS.TasksSubmitted.Value()
		tr, err := traceRun(cfg, p, srv.d, func() error {
			traced, err = runServePass(srv, p, o, dest, passes[1])
			return err
		})
		if err != nil {
			return nil, err
		}
		j1, f1, _ := srv.jnl.Stats()
		c1, _ := srv.d.Service.CacheStats()
		in := layerInputs{
			jobs:           float64(len(traced.jobs)),
			steps:          traced.steps,
			sum:            traced.sum,
			tasks:          float64(srv.d.FaaS.TasksSubmitted.Value() - tasks0),
			journalAppends: float64(j1 - j0),
			journalFsyncs:  float64(f1 - f0),
			cacheHits:      float64(c1.Hits - c0.Hits),
			cacheMisses:    float64(c1.Misses - c0.Misses),
			genLateMS:      float64(traced.lateMax) / 1e6,
			jobP99MS:       quantile(traced.lat, 0.99),
		}
		for _, j := range traced.jobs {
			in.submitMS = append(in.submitMS, j.submitMS)
			in.statusCalls += float64(j.polls)
			if j.refused {
				in.refused++
			}
		}
		oc.metrics = tr.layers(in)
		tracedCPU := float64(traced.use.cpu) / traced.steps
		plainCPU := float64(plain.use.cpu) / plain.steps
		oc.metrics.set("trace.cpu_overhead_pct", "%", 100*(tracedCPU/plainCPU-1))
		oc.metrics.set("trace.e2e_overhead_pct", "%", 100*(median(traced.lat)/median(plain.lat)-1))
		oc.attempted = int64(len(plain.jobs) + len(traced.jobs))
		oc.failed = plain.failed + traced.failed
		if err := tr.write(oc.metrics); err != nil {
			return nil, err
		}
	}
	oc.mismatches, oc.first = o.mismatches.Load(), o.firstMismatch()
	oc.failed += oc.mismatches
	return oc, nil
}
