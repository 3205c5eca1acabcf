package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// RepoSpec names one repository to process within a job.
type RepoSpec struct {
	// SiteName is the registered site holding the repository.
	SiteName string
	// Roots are the directories to crawl.
	Roots []string
	// Grouper is the file grouping function.
	Grouper crawler.GroupingFunc
	// GrouperName is the symbolic name Grouper was resolved from, when
	// known. It is what the journal persists — functions cannot survive a
	// restart — and what recovery resolves back to a GroupingFunc.
	GrouperName string
	// CrawlWorkers sizes the crawler's thread pool (default 16).
	CrawlWorkers int
	// UseMinTransfers toggles min-transfer family packaging (default on
	// when unset via the NoMinTransfers flag).
	NoMinTransfers bool
	// MaxFamilySize is the family size bound s (default 16).
	MaxFamilySize int
}

// JobStats summarizes a finished job. Every counter is scoped to this
// job alone — concurrent jobs on one service each report only their own
// work; service-lifetime aggregates are the xtract_* metrics on cfg.Obs.
type JobStats struct {
	JobID             string
	Crawl             crawler.Stats
	FamiliesDone      int64
	FamiliesFailed    int64
	StepsProcessed    int64
	StepsFailed       int64
	TasksResubmitted  int64
	StepsRetried      int64
	StepsDeadLettered int64
	BytesStaged       int64
	// CacheHits counts steps replayed from the extraction result cache
	// (no FaaS dispatch); CacheMisses counts lookups that fell through
	// to extraction.
	CacheHits   int64
	CacheMisses int64
	// PumpWakeups counts orchestration-loop wakeups: how many times the
	// pump woke to look for work (loop iterations under the poll–sleep
	// design; event-wait returns under the event-driven one).
	// PumpIdleWakeups counts the subset that found nothing to do — pure
	// control-loop overhead. The ratios over StepsProcessed are what the
	// orchestration bench tracks.
	PumpWakeups     int64
	PumpIdleWakeups int64
	// FamiliesDegraded is the subset of FamiliesDone that shipped partial
	// results under the job's straggler budget: their dead-lettered steps
	// are marked in the validation record instead of failing the family.
	FamiliesDegraded int64
	// StepsHedged counts speculative duplicates dispatched for steps that
	// exceeded their extractor's latency estimate; HedgeWins the
	// duplicates that finished first; DuplicateSteps the redundant
	// completions discarded by the exactly-once fence.
	StepsHedged    int64
	HedgeWins      int64
	DuplicateSteps int64
	// Degraded marks the job's terminal state DEGRADED: it converged with
	// partial results inside the straggler budget.
	Degraded bool
	Elapsed  time.Duration
}

// PipelineKind names the orchestration pipeline implementation, recorded
// in benchmark output so perf trajectories compare like with like. The
// poll–sleep pipeline (iterate every source, sleep 2 ms when idle, poll
// the fabric for completions) was replaced by this event-driven one: the
// pump blocks on wakeup channels and completion notifications, and
// per-site dispatcher shards own batching and submission.
const PipelineKind = "event-driven"

// JobOptions carries per-job overrides.
type JobOptions struct {
	// NoCache bypasses the extraction result cache for this job: the
	// crawler skips content fingerprinting and the pump neither consults
	// nor updates the cache.
	NoCache bool
	// Tenant owns the job for quota, fair-share, and cost accounting
	// ("" = the default tenant).
	Tenant string
	// OnID, when set, is called once with the job's ID as soon as the
	// job record exists and is journaled, before any family is crawled.
	// It runs on the submitting goroutine and must not block (the REST
	// front end hands in a send to a 1-buffered channel).
	OnID func(jobID string)
}

// stepRef names one step of one family together with the step's record
// in the family's plan. Dispatcher shards carry refs through batching
// and back without touching the record; only the pump reads or writes
// it, and a ref keeps the record reachable for a task still in flight
// after its family finished (the exactly-once fence reads it there).
type stepRef struct {
	famID string
	step  scheduler.Step
	rec   *scheduler.StepRecord
}

// attemptDone retires one in-flight execution of the step.
func (r stepRef) attemptDone() {
	if r.rec.Live > 0 {
		r.rec.Live--
	}
}

// moot reports whether a failed attempt for the step can be swallowed:
// the step already completed via another attempt (a hedge winner — its
// cancelled or failed loser is noise), or another attempt is still in
// flight and will drive the step to its own outcome.
func (r stepRef) moot() bool {
	return r.rec.Status == scheduler.StepDone || r.rec.Live > 0
}

// taskRec is the pump's record of one task in flight on the fabric,
// kept from the shard's submitted event to the task's terminal event.
// Shards report submissions only under an enabled hedge policy, the
// one consumer of these records: the hedge deadline, loser
// cancellation, and the end-to-end latency fed to the estimator.
type taskRec struct {
	refs      []stepRef
	submitted time.Time
	hedge     bool
}

// famState is the service-side record of one in-flight family.
type famState struct {
	fam       family.Family
	plan      *scheduler.Plan
	site      *Site
	pathMap   map[string]string
	results   map[string]map[string]interface{}
	steps     []validate.StepResult
	staged    bool
	fetchFrom string // direct-fetch source endpoint ("" = local/staged)

	// prefetchBody is the serialized staging task, kept for re-sends.
	prefetchBody []byte
	// stageAttempts counts staging tries for this family.
	stageAttempts int
	// deadLettered counts this family's quarantined steps; any > 0 makes
	// the family fail once its plan drains.
	deadLettered int
}

// pump is the orchestration state for one job. Family state stays
// single-threaded — only the pump goroutine touches states, staging,
// step records, tasks, due, and budget, which is what keeps the retry/
// dead-letter and cache semantics intact — while batching,
// submission, and completion collection live in per-site dispatcher
// shards (dispatch.go) that the pump talks to over channels.
type pump struct {
	s     *Service
	jobID string
	// tenant owns the job: dispatch admission and cost accounting are
	// billed against it.
	tenant string
	start  time.Time
	// famQ is this job's private crawl-output queue; a shared queue would
	// let concurrent pumps steal each other's families.
	famQ      *queue.Queue
	noCache   bool
	states    map[string]*famState
	staging   map[string]*famState
	failedFam int64

	// jobCtx scopes shard goroutines to this job; events fans their
	// terminal-task and dispatch-failure notifications back in; shards
	// holds one dispatcher per site, created on first use.
	jobCtx  context.Context
	events  *shardEventSink
	shards  map[string]*dispatcher
	shardWG sync.WaitGroup
	// prefetchGate, when non-nil, pauses PrefetchDone reads briefly after
	// a batch that held only other jobs' results: Nacking those re-signals
	// the shared queue's ready channel, and the gate breaks the wakeup
	// ping-pong that two staging jobs could otherwise spin on.
	prefetchGate <-chan time.Time

	// Job-scoped progress counters: JobStats is built from these, so
	// concurrent jobs never report each other's work (the service-wide
	// aggregates are the xtract_* metrics).
	familiesDone     int64
	stepsProcessed   int64
	stepsFailed      int64
	tasksResubmitted int64
	bytesStaged      int64
	cacheHits        int64
	cacheMisses      int64

	// due holds every timed transition — step and staging retries
	// waiting out their backoff, hedge deadlines; budget is the job's
	// remaining retry budget.
	due          deadlines
	budget       int
	retried      int64
	deadLettered int64
	wakeups      int64
	idleWakeups  int64

	// seenFams dedups family intake: the crawl queue has SQS semantics,
	// so a visibility expiry racing completion redelivers a family under
	// a fresh receipt, and processing it twice would double every step's
	// billing and journal record.
	seenFams map[string]bool

	// tasks holds the record of every task in flight (see taskRec).
	tasks map[string]taskRec

	stepsHedged    int64
	hedgeWins      int64
	duplicateSteps int64
	degradedFam    int64

	// pendingResults accumulates finished-family validation records so
	// one ResultQueue.SendBatch per pump cycle replaces a queue lock (and
	// a wakeup signal) per family. The pooled encode buffers ride along
	// and are released only after the batch send copies the bodies.
	pendingResults [][]byte
	pendingBufs    []*[]byte
}

// flushResults batch-sends the buffered validation records and returns
// their encode buffers to the payload pool. Called once per pump cycle
// and deferred for the error-return paths.
func (p *pump) flushResults() {
	if len(p.pendingResults) == 0 {
		return
	}
	p.s.cfg.ResultQueue.SendBatch(p.pendingResults)
	for i, b := range p.pendingBufs {
		fastjson.PutBuf(b)
		p.pendingResults[i] = nil
		p.pendingBufs[i] = nil
	}
	p.pendingResults = p.pendingResults[:0]
	p.pendingBufs = p.pendingBufs[:0]
}

// RunJob crawls the given repositories and orchestrates extraction until
// every family's plan completes. Crawling and extraction overlap: the
// service dequeues families as the crawler emits them (the paper's
// "begins extracting data within 3 seconds of the crawler starting").
func (s *Service) RunJob(ctx context.Context, repos []RepoSpec) (JobStats, error) {
	return s.RunJobWithOptions(ctx, repos, JobOptions{})
}

// journalSpec converts a job's repo list and options to the journal's
// serializable form (the GroupingFunc travels as its symbolic name).
func journalSpec(repos []RepoSpec, opts JobOptions) *journal.JobSpec {
	js := &journal.JobSpec{NoCache: opts.NoCache, Tenant: tenant.Normalize(opts.Tenant)}
	for _, r := range repos {
		js.Repos = append(js.Repos, journal.RepoSpec{
			Site:           r.SiteName,
			Roots:          append([]string(nil), r.Roots...),
			Grouper:        r.GrouperName,
			CrawlWorkers:   r.CrawlWorkers,
			MaxFamilySize:  r.MaxFamilySize,
			NoMinTransfers: r.NoMinTransfers,
		})
	}
	return js
}

// RunJobWithOptions is RunJob with per-job overrides. The job is
// journaled durably (when a journal is configured) before any work
// starts, so a crash at any later point can recover it; opts.OnID learns
// the ID once that record exists.
func (s *Service) RunJobWithOptions(ctx context.Context, repos []RepoSpec, opts JobOptions) (JobStats, error) {
	names := make([]string, 0, len(repos))
	for _, r := range repos {
		names = append(names, r.SiteName)
	}
	if opts.OnID == nil {
		opts.OnID = func(string) {}
	}
	jobID := s.cfg.Registry.CreateJob(tenant.Normalize(opts.Tenant), names, s.clk.Now())
	if s.cfg.Cluster != nil {
		// Ownership lease before the submission record: a peer's failover
		// scan sees the job in the journal's live fold only after the
		// lease already guards it, so a just-submitted job can never be
		// adopted out from under its submitter. (Lease records for a job
		// the fold does not know yet are skipped on replay — harmless.)
		// Fresh IDs are node-unique, so acquisition can only fail on a
		// coordination-layer fault.
		if err := s.cfg.Cluster.AcquireJob(jobID); err != nil {
			s.failJob(jobID, tenant.Normalize(opts.Tenant), err)
			opts.OnID(jobID)
			return JobStats{JobID: jobID}, err
		}
	}
	s.journalAppend(journal.Record{
		Type:  journal.RecJobSubmitted,
		JobID: jobID,
		Spec:  journalSpec(repos, opts),
	})
	opts.OnID(jobID)
	s.obs.Emitf(jobID, obs.EvJobSubmitted, "repositories=%s", strings.Join(names, ","))
	return s.runJob(ctx, jobID, repos, opts)
}

// runJob crawls and pumps one job to a terminal state under an existing
// job record. It is the shared back half of submission and journal
// recovery — recovery re-enters here with the restored job ID.
func (s *Service) runJob(ctx context.Context, jobID string, repos []RepoSpec, opts JobOptions) (JobStats, error) {
	s.obsJobsActive.Inc()
	defer s.obsJobsActive.Dec()
	ten := tenant.Normalize(opts.Tenant)
	// JobStarted consumes the admission reservation taken at the API
	// front door (or a fresh slot for direct/recovered callers); the
	// deferred JobEnded releases it whichever way the job exits.
	s.cfg.Tenants.JobStarted(ten)
	defer s.cfg.Tenants.JobEnded(ten)

	// Each job crawls into its own private family queue: with a shared
	// queue, concurrent jobs would steal each other's families (and hence
	// each other's results and stats).
	famQ := queue.New("crawl-families/"+jobID, s.clk)

	crawlDone := make(chan crawler.Stats, len(repos))
	crawlErr := make(chan error, len(repos))
	for _, spec := range repos {
		site, ok := s.Site(spec.SiteName)
		if !ok {
			err := fmt.Errorf("core: unknown site %q", spec.SiteName)
			s.failJob(jobID, ten, err)
			return JobStats{JobID: jobID}, err
		}
		c := crawler.New(site.Store, spec.Grouper, famQ)
		c.Fingerprint = s.cfg.Cache != nil && !opts.NoCache
		if spec.CrawlWorkers > 0 {
			c.Workers = spec.CrawlWorkers
		}
		if spec.MaxFamilySize > 0 {
			c.MaxFamilySize = spec.MaxFamilySize
		}
		c.UseMinTransfers = !spec.NoMinTransfers
		c.ObsDirsListed = s.obsCrawlDirs
		c.ObsFilesSeen = s.obsCrawlFiles
		c.ObsGroupsFormed = s.obsCrawlGroups
		c.ObsFamiliesEmitted = s.obsCrawlFamilies
		c.ObsBytesSeen = s.obsCrawlBytes
		c.ObsListErrors = s.obsCrawlErrors
		go func(spec RepoSpec) {
			s.obs.Emitf(jobID, obs.EvCrawlStarted, "site=%s roots=%d", spec.SiteName, len(spec.Roots))
			stats, err := c.Crawl(ctx, spec.Roots)
			if err != nil {
				crawlErr <- err
				return
			}
			s.obs.Emitf(jobID, obs.EvCrawlFinished, "site=%s files=%d families=%d",
				spec.SiteName, stats.FilesSeen, stats.FamiliesEmitted)
			crawlDone <- stats
		}(spec)
	}

	jobCtx, cancelJob := context.WithCancel(ctx)
	p := &pump{
		s:        s,
		jobID:    jobID,
		tenant:   ten,
		start:    s.clk.Now(),
		famQ:     famQ,
		noCache:  opts.NoCache,
		states:   make(map[string]*famState),
		staging:  make(map[string]*famState),
		jobCtx:   jobCtx,
		events:   newShardEventSink(),
		shards:   make(map[string]*dispatcher),
		budget:   s.retry.JobBudget,
		seenFams: make(map[string]bool),
		tasks:    make(map[string]taskRec),
	}
	defer func() {
		p.flushResults() // error paths must not strand buffered records
		cancelJob()
		p.shardWG.Wait()
		if s.cfg.Cluster != nil {
			s.cfg.Cluster.UntrackPump(jobID)
			// A draining node keeps its leases: they expire on their own
			// TTL, which is exactly how a dead node's jobs become
			// adoptable. Any other exit releases the lease after the
			// terminal record (the release record then post-dates it).
			if !s.draining.Load() {
				s.cfg.Cluster.ReleaseJob(jobID)
			}
		}
	}()
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.TrackPump(jobID, cancelJob)
	}
	// Endpoint liveness is scanned on its own timer, decoupled from pump
	// progress, so tasks stranded on a dead allocation surface as LOST —
	// and wake the pump through their completion notification — even
	// while the pump is busy with a submission burst.
	go func() {
		interval := s.cfg.FaaS.HeartbeatTimeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-s.clk.After(interval):
				s.cfg.FaaS.CheckHeartbeats()
			}
		}
	}()
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = registry.JobExtracting
	})

	// The pump is event-driven: each cycle drains every actionable source
	// to empty, then blocks in await until a wakeup channel signals. The
	// wakeup/idle split is the orchestration bench's headline number — an
	// idle wakeup means a signal fired with nothing for this job to do
	// (essentially only foreign results on the shared prefetch queue).
	var crawlStats crawler.Stats
	crawlsPending := len(repos)
	woke := "start"
	for {
		progress := false
		for {
			pass := false
			// Collect finished crawls without blocking.
			for crawlsPending > 0 {
				select {
				case stats := <-crawlDone:
					crawlStats.Add(stats)
					crawlsPending--
					pass = true
					continue
				case err := <-crawlErr:
					s.failJob(jobID, ten, err)
					return JobStats{JobID: jobID}, err
				default:
				}
				break
			}
			if p.intakeFamilies() {
				pass = true
			}
			if p.intakeStaged() {
				pass = true
			}
			if p.intakeDue() {
				pass = true
			}
			if p.handleEvents() {
				pass = true
			}
			if !pass {
				break
			}
			progress = true
		}
		// One batch send covers every family finished this cycle.
		p.flushResults()
		// The job-start drain and crawl completions are work in themselves
		// even when no step became actionable; anything else that woke the
		// pump for nothing is counted as idle overhead.
		if !progress && woke != "start" && woke != "crawl" {
			p.idleWakeups++
			s.wakeupCounter("idle").Inc()
		}
		// Termination: nothing crawling, no live or staging families, no
		// shard events in flight, and the family queue drained. Families
		// stay in p.states until their plan resolves, and in p.staging
		// until staged, so empty maps also mean no outstanding shard work
		// and no retry waiting out its backoff (a step waiting one stays
		// issued; a family waiting one stays staging). Pending hedge
		// deadlines do not hold the job open.
		if crawlsPending == 0 && len(p.states) == 0 && len(p.staging) == 0 &&
			p.events.pending() == 0 && famQ.Len() == 0 {
			break
		}
		var err error
		woke, err = p.await(ctx, crawlDone, crawlErr, &crawlStats, &crawlsPending)
		if err != nil {
			s.failJob(jobID, ten, err)
			return JobStats{JobID: jobID}, err
		}
		p.wakeups++
		s.wakeupCounter(woke).Inc()
	}

	elapsed := s.clk.Since(p.start)
	// The loop drains to convergence even with failures: families that
	// exhausted their retries are quarantined as dead letters, and a job
	// with any of them terminates FAILED — with the dead-letter report on
	// its record — rather than COMPLETE or hung.
	state := registry.JobComplete
	event := obs.EvJobCompleted
	var errMsg string
	stragglers := int64(s.cfg.StragglerBudget)
	switch {
	case p.failedFam > 0 || (p.deadLettered > 0 && (stragglers <= 0 || p.deadLettered > stragglers)):
		state = registry.JobFailed
		event = obs.EvJobFailed
		errMsg = fmt.Sprintf("core: %d families failed, %d steps dead-lettered",
			p.failedFam, p.deadLettered)
	case p.degradedFam > 0:
		// Dead-lettered stragglers stayed inside the budget: the job
		// converged with partial results rather than failing outright.
		state = registry.JobDegraded
		errMsg = fmt.Sprintf("core: degraded: %d families partial, %d steps dead-lettered",
			p.degradedFam, p.deadLettered)
	}
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = state
		j.GroupsCrawled = crawlStats.GroupsFormed
		j.GroupsDone = p.stepsProcessed
		j.Err = errMsg
	})
	s.journalAppend(journal.Record{
		Type: journal.RecJobTerminal, JobID: jobID,
		State: string(state), Err: errMsg,
	})
	s.jobStateCounter(state).Inc()
	s.cfg.Tenants.JobOutcome(ten, string(state))
	s.obs.Emitf(jobID, event, "families_failed=%d steps_dead_lettered=%d cache_hits=%d elapsed=%s",
		p.failedFam, p.deadLettered, p.cacheHits, elapsed)
	return JobStats{
		JobID:             jobID,
		Crawl:             crawlStats,
		FamiliesDone:      p.familiesDone,
		FamiliesFailed:    p.failedFam,
		StepsProcessed:    p.stepsProcessed,
		StepsFailed:       p.stepsFailed,
		TasksResubmitted:  p.tasksResubmitted,
		StepsRetried:      p.retried,
		StepsDeadLettered: p.deadLettered,
		BytesStaged:       p.bytesStaged,
		CacheHits:         p.cacheHits,
		CacheMisses:       p.cacheMisses,
		PumpWakeups:       p.wakeups,
		PumpIdleWakeups:   p.idleWakeups,
		FamiliesDegraded:  p.degradedFam,
		StepsHedged:       p.stepsHedged,
		HedgeWins:         p.hedgeWins,
		DuplicateSteps:    p.duplicateSteps,
		Degraded:          state == registry.JobDegraded,
		Elapsed:           elapsed,
	}, nil
}

// failJob marks a job record terminal after an error: CANCELLED when the
// context was cancelled (the DELETE /jobs/{id} path), FAILED otherwise.
// During a graceful shutdown the cancellation is the restart itself, so
// nothing terminal is recorded — the journal keeps the job live and
// recovery resumes it. ten is the owning tenant for outcome accounting.
func (s *Service) failJob(jobID, ten string, err error) {
	if s.cfg.Cluster != nil && !s.cfg.Cluster.HoldsLive(jobID) && !s.draining.Load() {
		// The job's lease moved to another node (this pump was cancelled
		// by fencing, not by the user): the new owner drives the job to
		// its real outcome; recording a terminal state here would be the
		// split-brain write the fence exists to stop.
		return
	}
	state := registry.JobFailed
	event := obs.EvJobFailed
	if errors.Is(err, context.Canceled) {
		if s.draining.Load() {
			return
		}
		state = registry.JobCancelled
		event = obs.EvJobCancelled
	}
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = state
		j.Err = err.Error()
	})
	if state == registry.JobCancelled {
		// Durable cancellation: a restarted service must not resurrect a
		// job the user cancelled.
		s.journalAppend(journal.Record{Type: journal.RecJobCancelled, JobID: jobID, Err: err.Error()})
	} else {
		s.journalAppend(journal.Record{Type: journal.RecJobTerminal, JobID: jobID, State: string(state), Err: err.Error()})
	}
	s.jobStateCounter(state).Inc()
	s.cfg.Tenants.JobOutcome(ten, string(state))
	s.obs.Emit(jobID, event, err.Error())
}

// intakeFamilies pulls crawled families off this job's private queue,
// places them, and either readies them for dispatch or sends them to the
// prefetcher.
func (p *pump) intakeFamilies() bool {
	msgs := p.famQ.Receive(64, 5*time.Minute)
	if len(msgs) == 0 {
		// Empty queue with a pending ready token means an earlier pass
		// already consumed the messages the token announced. Absorb the
		// stale token so it doesn't wake the pump for nothing, then
		// re-check: a send racing the absorb re-signals the channel, so
		// no wakeup is ever lost.
		select {
		case <-p.famQ.Ready():
			msgs = p.famQ.Receive(64, 5*time.Minute)
		default:
		}
		if len(msgs) == 0 {
			return false
		}
	}
	receipts := make([]string, 0, len(msgs))
	var dec fastjson.Dec
	for _, m := range msgs {
		receipts = append(receipts, m.Receipt)
		dec.Reset(m.Body)
		var fam family.Family
		if err := family.DecodeFrom(&dec, &fam); err != nil {
			continue
		}
		if p.seenFams[fam.ID] {
			// Redelivery: the message's visibility expired while a slow
			// intake pass was still holding it, so the queue handed it out
			// again under a fresh receipt. The family is already placed (or
			// finished) — running it twice would double-complete every
			// step — so only the receipt is acknowledged.
			continue
		}
		p.seenFams[fam.ID] = true
		p.s.obs.Emitf(p.jobID, obs.EvFamilyEnqueued, "family=%s groups=%d bytes=%d",
			fam.ID, len(fam.Groups), fam.TotalBytes())
		p.journal(journal.Record{
			Type: journal.RecFamilyEnqueued, FamilyID: fam.ID, Groups: len(fam.Groups),
		})
		p.placeFamily(fam)
	}
	p.famQ.DeleteBatch(receipts) // one lock acquisition for the whole batch
	return true
}

// journal appends one record for this job, without blocking the pump on
// durability: step and family transitions ride the journal's group
// commit asynchronously. The hard-durability records (submission,
// cancellation, terminal state) go through Service.journalAppend instead.
func (p *pump) journal(rec journal.Record) {
	if p.s.cfg.Journal == nil {
		return
	}
	rec.JobID = p.jobID
	if p.s.fenced(rec) {
		return
	}
	if err := p.s.cfg.Journal.AppendAsync(rec); err != nil {
		p.s.obsJournalErrors.Inc()
	}
}

// journalStepCompleted records one finished step. The record carries the
// step's content-addressed cache key (when the step is cacheable) and its
// metadata, which is what lets recovery seed the result cache so no
// extractor re-runs for work completed before a crash.
func (p *pump) journalStepCompleted(famID string, step scheduler.Step,
	md map[string]interface{}, key cache.Key, cacheable, fromCache bool) {
	if p.s.cfg.Journal == nil {
		return
	}
	rec := journal.Record{
		Type: journal.RecStepCompleted, FamilyID: famID,
		GroupID: step.GroupID, Extractor: step.Extractor, Cached: fromCache,
	}
	if cacheable {
		rec.CacheKey = &journal.CacheKey{ContentHash: key.ContentHash, Version: key.Version}
	}
	// Defer metadata serialization to the journal's flush leader: the
	// record carries the live map (never mutated after step completion)
	// and the group-commit encoder renders it off the pump's hot path.
	if md != nil {
		rec.MetadataObj = md
	} else {
		rec.Metadata = nullJSON
	}
	p.journal(rec)
}

// nullJSON preserves the pre-deferred-encode journal bytes for nil
// metadata (json.Marshal(nil map) == null).
var nullJSON = []byte("null")

// placeFamily runs the placement policy and routes the family either
// straight to dispatch or through the prefetcher.
func (p *pump) placeFamily(fam family.Family) {
	home, ok := p.s.Site(fam.Store)
	if !ok {
		p.failFamily(fam.ID, "unknown home site "+fam.Store, 0)
		return
	}
	var alternates []scheduler.SiteState
	p.s.mu.Lock()
	for name, site := range p.s.sites {
		if name != home.Name && site.HasCompute() {
			alternates = append(alternates, site.state())
		}
	}
	p.s.mu.Unlock()
	targetName := p.s.cfg.Policy.Place(&fam, home.state(), alternates)
	target, ok := p.s.Site(targetName)
	if !ok || !target.HasCompute() {
		// No compute anywhere reachable: the family cannot be processed.
		p.failFamily(fam.ID, "no compute site for placement", 0)
		return
	}

	st := &famState{
		fam:     fam,
		plan:    scheduler.BuildPlan(&fam),
		site:    target,
		pathMap: make(map[string]string),
		results: make(map[string]map[string]interface{}),
	}
	if target.Name == home.Name {
		for path := range fam.FileMeta {
			st.pathMap[path] = path
		}
		p.states[fam.ID] = st
		p.bucketReadySteps(st)
		// A family whose every step was served from the result cache never
		// reaches the task-completion path — close it out here.
		p.finishIfDone(st)
		return
	}
	if target.DirectFetch {
		// No shared file system at the target: workers download each file
		// from the home data layer at extraction time (Table 3's pods).
		for path := range fam.FileMeta {
			st.pathMap[path] = path
		}
		st.fetchFrom = home.TransferID
		p.states[fam.ID] = st
		p.bucketReadySteps(st)
		p.finishIfDone(st)
		return
	}
	// Staging required: the target must have room for the family's bytes
	// (Listing 2's available_gb). When the chosen site is full, fall back
	// to another compute site with space; with none, the family fails.
	need := fam.TotalBytes()
	if !target.reserveStage(need) {
		target = nil
		p.s.mu.Lock()
		for name, site := range p.s.sites {
			if name != home.Name && site.HasCompute() && site.reserveStage(need) {
				target = site
				break
			}
		}
		p.s.mu.Unlock()
		if target == nil {
			p.failFamily(fam.ID, "no staging capacity", 0)
			return
		}
		st.site = target
	}
	// Map every family file into the target stage dir.
	var pairs []transfer.FilePair
	for path := range fam.FileMeta {
		staged := target.StagePath + path
		st.pathMap[path] = staged
		pairs = append(pairs, transfer.FilePair{Src: path, Dst: staged})
	}
	st.staged = true
	task := transfer.PrefetchTask{
		FamilyID: fam.ID,
		Src:      home.TransferID,
		Dst:      target.TransferID,
		Pairs:    pairs,
	}
	body := transfer.AppendPrefetchTask(nil, &task)
	st.prefetchBody = body
	st.stageAttempts = 1
	p.s.cfg.PrefetchQueue.Send(body)
	p.staging[fam.ID] = st
	p.s.obs.Emitf(p.jobID, obs.EvFamilyStaging, "family=%s dst=%s files=%d",
		fam.ID, target.Name, len(pairs))
}

// failFamily abandons a family: the trace records why, and the job
// record gets a family-level dead letter so no metadata is lost without
// an audit entry.
func (p *pump) failFamily(famID, reason string, attempts int) {
	p.failedFam++
	p.s.obsFamiliesFailed.Inc()
	p.s.obsDeadLetterFam.Inc()
	_ = p.s.cfg.Registry.UpdateJob(p.jobID, func(j *registry.JobRecord) {
		j.AddDeadLetter(registry.DeadLetter{
			Kind:     "family",
			FamilyID: famID,
			Attempts: attempts,
			Reason:   reason,
			At:       p.s.clk.Now(),
		})
	})
	p.s.obs.Emitf(p.jobID, obs.EvFamilyFailed, "family=%s abandoned: %s", famID, reason)
	p.journal(journal.Record{Type: journal.RecFamilyFailed, FamilyID: famID, Reason: reason})
}

// retryOrDeadLetter routes one failed or lost step: if the step still
// has attempts left and the job still has retry budget, its retry is
// scheduled on the deadline heap and true is returned; otherwise the step
// is quarantined as a dead letter and false is returned. The step must be
// issued either way (it stays issued while waiting out the backoff, so
// the plan does not report Done prematurely). cause is a low-cardinality
// label ("lost", "failed", ...); detail may carry the underlying error
// text for the trace and dead-letter record.
func (p *pump) retryOrDeadLetter(st *famState, r stepRef, cause, detail string) bool {
	reason := cause
	if detail != "" {
		reason = cause + ": " + detail
	}
	r.rec.Attempts++
	n := r.rec.Attempts
	step := r.step
	d, reason, ok := p.spendRetry(dueEntry{kind: dueStepRetry, ref: r},
		st.fam.ID+"/"+step.GroupID+"/"+step.Extractor, n, cause, reason)
	if !ok {
		p.deadLetterStep(st, step, n, reason)
		return false
	}
	p.s.obs.Emitf(p.jobID, obs.EvTaskRetried,
		"family=%s group=%s extractor=%s attempt=%d backoff=%s cause=%s",
		st.fam.ID, step.GroupID, step.Extractor, n, d, reason)
	p.journal(journal.Record{
		Type: journal.RecStepRetried, FamilyID: st.fam.ID,
		GroupID: step.GroupID, Extractor: step.Extractor,
		Attempt: n, Reason: reason,
	})
	return true
}

// spendRetry is the one retry decision for steps and staging alike: when
// attempt n is below the policy's MaxAttempts and the job has budget
// left, it spends one retry, pushes e onto the deadline heap after the
// backoff drawn for (key, n), counts the retry under label, and returns
// the backoff. Otherwise it schedules nothing and returns ok=false with
// the reason to give up under — prefixed when only the job budget
// refused.
func (p *pump) spendRetry(e dueEntry, key string, n int, label, reason string) (time.Duration, string, bool) {
	if n >= p.s.retry.MaxAttempts {
		return 0, reason, false
	}
	if p.budget <= 0 {
		p.s.obsBudgetExhausted.Inc()
		return 0, "retry budget exhausted: " + reason, false
	}
	p.budget--
	p.retried++
	d := p.s.retry.backoff(key, n)
	e.at = p.s.clk.Now().Add(d)
	p.due.push(e)
	p.s.retryCounter(label).Inc()
	p.s.obsRetryBackoff.ObserveDuration(d)
	return d, reason, true
}

// deadLetterStep quarantines a poison step: its plan entry is marked
// failed, the job record gets a dead-letter entry, and the family is
// doomed to fail once its plan drains.
func (p *pump) deadLetterStep(st *famState, step scheduler.Step, attempts int, cause string) {
	st.plan.Fail(step)
	st.deadLettered++
	p.deadLettered++
	p.stepsFailed++
	p.s.cfg.Tenants.StepFailed(p.tenant)
	p.s.obsStepsFailed.Inc()
	p.s.obsDeadLetterStp.Inc()
	_ = p.s.cfg.Registry.UpdateJob(p.jobID, func(j *registry.JobRecord) {
		j.AddDeadLetter(registry.DeadLetter{
			Kind:      "step",
			FamilyID:  st.fam.ID,
			GroupID:   step.GroupID,
			Extractor: step.Extractor,
			Attempts:  attempts,
			Reason:    cause,
			At:        p.s.clk.Now(),
		})
	})
	st.steps = append(st.steps, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: false, Err: "dead-lettered: " + cause,
	})
	p.s.obs.Emitf(p.jobID, obs.EvTaskDeadLettered,
		"family=%s group=%s extractor=%s attempts=%d cause=%s",
		st.fam.ID, step.GroupID, step.Extractor, attempts, cause)
	p.journal(journal.Record{
		Type: journal.RecStepDeadLettered, FamilyID: st.fam.ID,
		GroupID: step.GroupID, Extractor: step.Extractor,
		Attempt: attempts, Reason: cause,
	})
}

// retryStagingOrFail re-sends a family's prefetch task after a staging
// failure, or abandons the family once attempts (or budget) run out. The
// family stays in p.staging while waiting out the backoff.
func (p *pump) retryStagingOrFail(st *famState, cause string) {
	d, cause, ok := p.spendRetry(dueEntry{kind: dueStageRetry, ref: stepRef{famID: st.fam.ID}},
		st.fam.ID+"/stage", st.stageAttempts, "staging", cause)
	if ok {
		p.s.obs.Emitf(p.jobID, obs.EvTaskRetried,
			"family=%s staging attempt=%d backoff=%s cause=%s",
			st.fam.ID, st.stageAttempts, d, cause)
		return
	}
	delete(p.staging, st.fam.ID)
	p.failFamily(st.fam.ID, cause, st.stageAttempts)
}

// intakeDue fires every deadline-heap entry that is due, earliest first:
// retried steps go back to pending and re-bucket, retried staging
// re-sends its prefetch task, and an expired hedge deadline duplicates
// its task's unfinished steps. Entries whose family or task is gone are
// dropped.
func (p *pump) intakeDue() bool {
	now := p.s.clk.Now()
	progress := false
	for {
		e, ok := p.due.peek()
		if !ok || e.at.After(now) {
			return progress
		}
		p.due.pop()
		switch e.kind {
		case dueStepRetry:
			progress = true
			if st, ok := p.states[e.ref.famID]; ok {
				st.plan.Reset(e.ref.step)
				p.bucketReadySteps(st)
			}
		case dueStageRetry:
			progress = true
			if st, ok := p.staging[e.ref.famID]; ok {
				st.stageAttempts++
				p.s.cfg.PrefetchQueue.Send(st.prefetchBody)
				p.s.obs.Emitf(p.jobID, obs.EvFamilyStaging, "family=%s re-staged attempt=%d",
					st.fam.ID, st.stageAttempts)
			}
		case dueHedge:
			if p.fireHedge(e.taskID) {
				progress = true
			}
		}
	}
}

// armDue arms one timer, for the earliest live deadline-heap entry, and
// returns it with the wakeup reason of that entry's kind. Hedge entries
// whose task already finished are popped off the top first, so the
// timer never fires for nothing; with no entry left, nothing is armed.
func (p *pump) armDue() (<-chan time.Time, string) {
	for {
		e, ok := p.due.peek()
		if !ok {
			return nil, ""
		}
		if e.kind == dueHedge {
			if _, live := p.tasks[e.taskID]; !live {
				p.due.pop()
				continue
			}
		}
		d := e.at.Sub(p.s.clk.Now())
		if d < 0 {
			d = 0
		}
		return p.s.clk.After(d), e.kind.reason()
	}
}

// await blocks until some event source signals work for this job: a
// crawl finishing, the family queue, the shared prefetch-done queue
// (only while this job is staging), a shard event, the earliest
// deadline-heap entry coming due, or the foreign-result gate reopening.
// It returns a low-cardinality reason label for the wakeup counter.
func (p *pump) await(ctx context.Context, crawlDone <-chan crawler.Stats, crawlErr <-chan error,
	crawlStats *crawler.Stats, crawlsPending *int) (string, error) {
	dueCh, dueReason := p.armDue()
	cd, ce := crawlDone, crawlErr
	if *crawlsPending == 0 {
		cd, ce = nil, nil
	}
	// The shared prefetch-done queue only matters while this job has
	// families staging; while the foreign-result gate is closed, wait for
	// it to reopen instead of the queue's ready channel.
	var prefetchReady <-chan struct{}
	if p.prefetchGate == nil && len(p.staging) > 0 {
		prefetchReady = p.s.cfg.PrefetchDone.Ready()
	}
	select {
	case <-ctx.Done():
		return "", ctx.Err()
	case stats := <-cd:
		crawlStats.Add(stats)
		*crawlsPending--
		return "crawl", nil
	case err := <-ce:
		return "", err
	case <-p.famQ.Ready():
		return "families", nil
	case <-prefetchReady:
		return "staged", nil
	case <-p.events.Ready():
		return "events", nil
	case <-dueCh:
		return dueReason, nil
	case <-p.prefetchGate:
		p.prefetchGate = nil
		return "staged", nil
	}
}

// handleEvents drains the shard event sink: terminal tasks resolve
// against family plans, dispatch failures go through retry/dead-letter.
func (p *pump) handleEvents() bool {
	evs := p.events.drain()
	if len(evs) == 0 {
		// Absorb a stale ready token (same protocol as intakeFamilies):
		// the events it announced were drained by an earlier pass.
		select {
		case <-p.events.Ready():
			evs = p.events.drain()
		default:
		}
		if len(evs) == 0 {
			return false
		}
	}
	for _, ev := range evs {
		if ev.submitted {
			p.noteSubmitted(ev)
			continue
		}
		if ev.failed {
			for _, r := range ev.refs {
				r.attemptDone()
				if r.moot() {
					continue // another attempt owns this step's fate
				}
				if st, ok := p.states[r.famID]; ok {
					p.retryOrDeadLetter(st, r, ev.cause, ev.detail)
					p.finishIfDone(st)
				}
			}
			continue
		}
		p.handleTerminal(ev.taskID, ev.info, ev.refs)
	}
	return true
}

// noteSubmitted records a task accepted by the fabric — its task record,
// and its ID on each step it carries for loser cancellation — and, for a
// first-attempt task, arms the adaptive hedge deadline, scaled by the
// number of steps the task carries.
func (p *pump) noteSubmitted(ev shardEvent) {
	if len(ev.refs) == 0 {
		return
	}
	now := p.s.clk.Now()
	p.tasks[ev.taskID] = taskRec{refs: ev.refs, submitted: now, hedge: ev.hedge}
	for _, r := range ev.refs {
		r.rec.Tasks = append(r.rec.Tasks, ev.taskID)
	}
	if ev.hedge {
		return // hedges are never themselves hedged
	}
	d := p.s.estimator.Deadline(ev.refs[0].step.Extractor, p.s.cfg.FaaS.HeartbeatTimeout)
	if d <= 0 {
		return
	}
	d *= time.Duration(len(ev.refs))
	p.due.push(dueEntry{at: now.Add(d), kind: dueHedge, taskID: ev.taskID})
}

// fireHedge handles an expired hedge deadline: every unfinished,
// not-yet-hedged step of the task gets a speculative duplicate on
// another site. It reports false when the task finished first.
func (p *pump) fireHedge(taskID string) bool {
	t, live := p.tasks[taskID]
	if !live {
		return false
	}
	for _, r := range t.refs {
		if r.rec.Status == scheduler.StepDone || r.rec.Hedged {
			continue
		}
		st, ok := p.states[r.famID]
		if !ok {
			continue
		}
		r.rec.Hedged = true
		p.dispatchHedge(st, r)
	}
	return true
}

// hedgeTarget picks the site for a speculative duplicate: a different
// compute site that can run the extractor and whose circuit breaker
// admits new work (sites scanned in name order for determinism), else
// the origin site itself — a straggler is usually a property of the
// worker, not the step, so even a same-site duplicate tends to win.
func (p *pump) hedgeTarget(st *famState, extractor string) *Site {
	var cands []*Site
	p.s.mu.Lock()
	for name, site := range p.s.sites {
		if name != st.site.Name && site.HasCompute() {
			cands = append(cands, site)
		}
	}
	p.s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	for _, site := range cands {
		if _, err := p.s.functionFor(extractor, site.Name); err != nil {
			continue
		}
		if p.s.breakerFor(site.Name).Allow() {
			return site
		}
	}
	if p.s.breakerFor(st.site.Name).Allow() {
		return st.site
	}
	return nil
}

// dispatchHedge routes one speculative duplicate. On the origin site it
// reuses the family's effective paths; on an alternate site the worker
// fetches the original files from the family's home data layer over the
// transfer fabric (the same mechanism as direct-fetch placement), so a
// hedge needs no staging.
func (p *pump) dispatchHedge(st *famState, r stepRef) {
	step := r.step
	target := p.hedgeTarget(st, step.Extractor)
	if target == nil {
		return
	}
	it := dispatchItem{ref: r, hedge: true}
	if target.Name == st.site.Name {
		it.files = p.groupFiles(st, step.GroupID)
		it.fetchFrom = st.fetchFrom
	} else {
		it.files = make(map[string]string)
		for _, g := range st.fam.Groups {
			if g.ID != step.GroupID {
				continue
			}
			for _, f := range g.Files {
				it.files[f] = f
			}
		}
		if target.Name != st.fam.Store {
			home, ok := p.s.Site(st.fam.Store)
			if !ok {
				return
			}
			it.fetchFrom = home.TransferID
		}
	}
	if _, err := p.s.cfg.Tenants.AcquireTask(p.jobCtx, p.tenant); err != nil {
		return // job over; the controller reclaimed the slot internally
	}
	it.readyAt = p.s.clk.Now()
	select {
	case p.shardFor(target).feed <- it:
		r.rec.Live++
		p.stepsHedged++
		p.s.obsHedges.Inc()
		p.s.obs.Emitf(p.jobID, obs.EvTaskHedged,
			"family=%s group=%s extractor=%s site=%s speculative duplicate",
			st.fam.ID, step.GroupID, step.Extractor, target.Name)
	case <-p.jobCtx.Done():
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, 1)
	}
}

// cancelLosers cancels the other in-flight tasks carrying a step that
// just completed, freeing their workers early. A task is cancelled only
// when every step it carries is already done — cancelling a multi-step
// batch over one duplicate would kill innocent sibling steps.
func (p *pump) cancelLosers(r stepRef, winner string) {
	for _, tid := range r.rec.Tasks {
		if tid == winner {
			continue
		}
		t, live := p.tasks[tid]
		if !live {
			continue
		}
		all := true
		for _, lr := range t.refs {
			if lr.rec.Status != scheduler.StepDone {
				all = false
				break
			}
		}
		if all && p.s.cfg.FaaS.CancelTask(tid) {
			p.s.obsHedgeCancelled.Inc()
		}
	}
	r.rec.Tasks = nil
}

// shardFor returns (creating on first use) the dispatcher shard that
// owns the site's batching buckets and outstanding-task set.
func (p *pump) shardFor(site *Site) *dispatcher {
	if d, ok := p.shards[site.Name]; ok {
		return d
	}
	d := newDispatcher(p.s, p.jobID, p.tenant, site, p.events)
	p.shards[site.Name] = d
	p.shardWG.Add(1)
	go func() {
		defer p.shardWG.Done()
		d.run(p.jobCtx)
	}()
	return d
}

// dispatch routes one ready step to its site's shard. Fair-share
// admission happens here: the pump blocks until its tenant is granted a
// task slot (shards keep releasing slots independently, so a blocked
// pump starves no one but itself), then the send blocks only when the
// shard is feedDepth steps behind — back-pressure, bounded by the
// shard's own drain rate — and aborts if the job ends first. Every slot
// acquired here is released by the step's shard when its task reaches a
// terminal event (or by the shard's shutdown sweep).
func (p *pump) dispatch(st *famState, r stepRef, files map[string]string) {
	waited, err := p.s.cfg.Tenants.AcquireTask(p.jobCtx, p.tenant)
	if err != nil {
		return // job over; the controller reclaimed the slot internally
	}
	if waited {
		p.s.obs.Emitf(p.jobID, obs.EvTenantThrottled,
			"tenant=%s family=%s group=%s extractor=%s waited for task slot",
			p.tenant, st.fam.ID, r.step.GroupID, r.step.Extractor)
	}
	it := dispatchItem{ref: r, readyAt: p.s.clk.Now(), files: files, fetchFrom: st.fetchFrom}
	select {
	case p.shardFor(st.site).feed <- it:
		r.rec.Live++
	case <-p.jobCtx.Done():
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, 1)
	}
}

// intakeStaged consumes prefetcher results and readies staged families.
// Results for families this pump is not staging belong to a concurrent
// job sharing the queue: they are made visible again (Nack), never
// deleted, and do not count as progress. A batch of only such foreign
// results closes the prefetch gate briefly — each Nack re-signals the
// queue's ready channel, and without the gate two staging jobs would
// ping-pong wakeups at full speed.
func (p *pump) intakeStaged() bool {
	if len(p.staging) == 0 || p.prefetchGate != nil {
		return false
	}
	msgs := p.s.cfg.PrefetchDone.Receive(64, 5*time.Minute)
	if len(msgs) == 0 {
		return false
	}
	progress := false
	acks := make([]string, 0, len(msgs))
	for _, m := range msgs {
		var res transfer.PrefetchResult
		if err := transfer.DecodePrefetchResult(m.Body, &res); err != nil {
			acks = append(acks, m.Receipt)
			progress = true
			continue
		}
		st, ok := p.staging[res.FamilyID]
		if !ok {
			_ = p.s.cfg.PrefetchDone.Nack(m.Receipt)
			continue
		}
		progress = true
		if res.OK {
			delete(p.staging, res.FamilyID)
			p.bytesStaged += res.Bytes
			p.s.cfg.Tenants.AddBytesStaged(p.tenant, res.Bytes)
			p.s.obsBytesStaged.Add(float64(res.Bytes))
			p.s.obs.Emitf(p.jobID, obs.EvFamilyStaged, "family=%s bytes=%d elapsed=%s",
				res.FamilyID, res.Bytes, res.Elapsed)
			p.states[st.fam.ID] = st
			p.bucketReadySteps(st)
			p.finishIfDone(st)
		} else {
			p.retryStagingOrFail(st, "staging failed: "+res.Err)
		}
		acks = append(acks, m.Receipt)
	}
	p.s.cfg.PrefetchDone.DeleteBatch(acks)
	if !progress {
		p.prefetchGate = p.s.clk.After(2 * time.Millisecond)
	}
	return progress
}

// bucketReadySteps drains the family plan's pending steps toward the
// site's dispatcher shard, which owns per-extractor batching. Each
// first-attempt step is offered to the extraction result cache on the
// way: a hit completes the step in place — no shard, no FaaS task — and
// may unlock follow-on steps, which the loop then also drains.
func (p *pump) bucketReadySteps(st *famState) {
	for {
		step, ok := st.plan.Next()
		if !ok {
			return
		}
		r := stepRef{famID: st.fam.ID, step: step, rec: st.plan.Record(step)}
		if r.rec.Attempts == 0 {
			if key, ok := p.stepCacheKey(st, step); ok {
				if md, hit := p.s.cfg.Cache.Get(key); hit {
					p.completeFromCache(st, step, md, key)
					continue
				}
				p.cacheMisses++
				p.s.obsCacheMisses.Inc()
			}
		}
		p.dispatch(st, r, p.groupFiles(st, step.GroupID))
	}
}

// stepCacheKey derives the cache key for one step from the group's
// crawl-time content fingerprints. ok is false — the step is uncacheable
// — when no cache is configured, the job opted out, or any group member
// lacks a content hash.
func (p *pump) stepCacheKey(st *famState, step scheduler.Step) (cache.Key, bool) {
	if p.s.cfg.Cache == nil || p.noCache {
		return cache.Key{}, false
	}
	var files map[string]string
	for _, g := range st.fam.Groups {
		if g.ID != step.GroupID {
			continue
		}
		files = make(map[string]string, len(g.Files))
		for _, f := range g.Files {
			files[f] = st.fam.FileMeta[f].ContentHash
		}
		break
	}
	fp, ok := cache.GroupFingerprint(files)
	if !ok {
		return cache.Key{}, false
	}
	return cache.Key{
		ContentHash: fp,
		Extractor:   step.Extractor,
		Version:     p.s.extractorVersion(step.Extractor),
	}, true
}

// completeFromCache marks one step done with replayed metadata: the plan
// advances (including any schedule suggestions the metadata carries),
// the validation record gains a Cached provenance entry, and throughput
// counts the step — but no FaaS task is ever created.
func (p *pump) completeFromCache(st *famState, step scheduler.Step, md map[string]interface{}, key cache.Key) {
	st.steps = append(st.steps, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: true, Cached: true,
	})
	st.plan.Complete(step, md)
	st.results[step.GroupID+"/"+step.Extractor] = md
	p.journalStepCompleted(st.fam.ID, step, md, key, true, true)
	p.stepsProcessed++
	p.cacheHits++
	p.s.cfg.Tenants.StepDone(p.tenant, 0, true)
	p.s.obsGroupsProcessed.Inc()
	p.s.obsCacheHits.Inc()
	p.s.obs.Emitf(p.jobID, obs.EvStepCacheHit,
		"family=%s group=%s extractor=%s replayed from cache",
		st.fam.ID, step.GroupID, step.Extractor)
}

// groupFiles resolves a group's effective file map at the execution site.
func (p *pump) groupFiles(st *famState, groupID string) map[string]string {
	out := make(map[string]string)
	for _, g := range st.fam.Groups {
		if g.ID != groupID {
			continue
		}
		for _, f := range g.Files {
			if eff, ok := st.pathMap[f]; ok {
				out[f] = eff
			} else {
				out[f] = f
			}
		}
	}
	return out
}

// handleTerminal resolves one finished/lost task against family plans.
// A result carries one outcome per step the task carried, in order.
func (p *pump) handleTerminal(id string, info faas.TaskInfo, refs []stepRef) {
	touched := make(map[string]*famState)
	// perStepE2E is the task's submit→terminal latency split across its
	// steps — the span the hedge deadline is armed over, so queue wait at
	// the endpoint is priced into future deadlines. Zero for a task with
	// no record (hedging off); the estimator then sees raw execution
	// time (it has no consumer in that mode). hedge marks a speculative
	// duplicate, whose completions count as hedge wins when they claim
	// steps first.
	var perStepE2E time.Duration
	var hedge bool
	if t, ok := p.tasks[id]; ok {
		if len(refs) > 0 {
			perStepE2E = p.s.clk.Now().Sub(t.submitted) / time.Duration(len(refs))
		}
		hedge = t.hedge
		delete(p.tasks, id)
	}
	// The task is over: retire its attempts before the per-step
	// resolution below consults them.
	for _, r := range refs {
		r.attemptDone()
	}

	switch info.Status {
	case faas.TaskSuccess:
		var result taskResult
		if err := decodeTaskResult(info.Result, &result); err != nil {
			for _, r := range refs {
				if r.moot() {
					continue
				}
				if st, ok := p.states[r.famID]; ok {
					p.retryOrDeadLetter(st, r, "bad_result", err.Error())
					touched[r.famID] = st
				}
			}
			p.s.obs.Emitf(p.jobID, obs.EvTaskFailed, "task=%s bad result payload", id)
			break
		}
		p.s.obs.Emitf(p.jobID, obs.EvTaskCompleted, "task=%s extractor=%s outcomes=%d",
			id, result.Extractor, len(result.Outcomes))
		for i, outc := range result.Outcomes {
			if i >= len(refs) {
				break
			}
			r := refs[i]
			step := r.step
			if outc.OK && r.rec.Status == scheduler.StepDone {
				// Exactly-once fence: another attempt already completed this
				// step, so every side effect — plan advance, cache
				// write-back, journal record, billing, stats — has run
				// exactly once. This duplicate is counted and discarded.
				p.duplicateSteps++
				p.s.obsHedgeFenced.Inc()
				continue
			}
			st, ok := p.states[r.famID]
			if !ok {
				continue
			}
			dur := time.Duration(outc.ExtractMS * float64(time.Millisecond))
			if outc.OK {
				st.plan.Complete(step, outc.Metadata)
				if hedge {
					p.hedgeWins++
					p.s.obsHedgeWins.Inc()
				}
				p.cancelLosers(r, id)
				if perStepE2E > 0 {
					p.s.estimator.Observe(step.Extractor, perStepE2E)
				} else {
					p.s.estimator.Observe(step.Extractor, dur)
				}
				st.steps = append(st.steps, validate.StepResult{
					GroupID: outc.GroupID, Extractor: step.Extractor,
					OK: true, Duration: dur,
				})
				st.results[outc.GroupID+"/"+step.Extractor] = outc.Metadata
				// Remember the fresh result so a later run over identical
				// content replays it instead of re-extracting.
				key, cacheable := p.stepCacheKey(st, step)
				if cacheable {
					p.s.cfg.Cache.Put(key, outc.Metadata)
				}
				p.journalStepCompleted(st.fam.ID, step, outc.Metadata, key, cacheable, false)
				p.stepsProcessed++
				p.s.cfg.Tenants.StepDone(p.tenant, dur, false)
				p.s.obsGroupsProcessed.Inc()
				p.s.stepDurationHist(step.Extractor).ObserveDuration(dur)
			} else {
				if r.moot() {
					continue // a hedge attempt owns this step's fate
				}
				// The extractor ran and reported failure; retry in case the
				// fault was transient, then quarantine.
				p.retryOrDeadLetter(st, r, "step_error", outc.Err)
			}
			touched[r.famID] = st
		}
	case faas.TaskFailed:
		p.s.obs.Emitf(p.jobID, obs.EvTaskFailed, "task=%s steps=%d err=%s", id, len(refs), info.Err)
		for _, r := range refs {
			if r.moot() {
				continue // cancelled loser or covered by a live attempt
			}
			if st, ok := p.states[r.famID]; ok {
				p.retryOrDeadLetter(st, r, "failed", info.Err)
				touched[r.famID] = st
			}
		}
	case faas.TaskLost:
		// Allocation ended (Figure 8 restart): resubmit with bounded
		// retry so a permanently dead endpoint cannot loop forever.
		p.s.obs.Emitf(p.jobID, obs.EvTaskLost, "task=%s steps=%d", id, len(refs))
		requeued := 0
		for _, r := range refs {
			if r.moot() {
				continue
			}
			if st, ok := p.states[r.famID]; ok {
				if p.retryOrDeadLetter(st, r, "lost", info.Err) {
					requeued++
				}
				touched[r.famID] = st
			}
		}
		if requeued > 0 {
			p.tasksResubmitted++
			p.s.obsTasksResubmitted.Inc()
			p.s.obs.Emitf(p.jobID, obs.EvTaskResubmitted, "task=%s steps=%d requeued after backoff", id, requeued)
		}
	}
	for _, st := range touched {
		p.bucketReadySteps(st) // suggestions and resets become new steps
		p.finishIfDone(st)
	}
}

// finishIfDone emits the validation record once a family's plan is empty.
// A family with quarantined steps fails instead: its metadata is
// incomplete and the job's dead-letter report is the audit trail.
func (p *pump) finishIfDone(st *famState) {
	if !st.plan.Done() {
		return
	}
	if _, live := p.states[st.fam.ID]; !live {
		return
	}
	delete(p.states, st.fam.ID)
	if st.staged && st.site.DeleteStaged {
		// The family is terminal, so no later step can still need its
		// staged copies (a step suggested by another's metadata reads
		// them after the first step has finished). Best effort: a copy
		// that cannot be deleted costs only stage space.
		for _, staged := range st.pathMap {
			_ = st.site.Store.Delete(staged)
		}
	}
	if st.deadLettered > 0 {
		stragglers := int64(p.s.cfg.StragglerBudget)
		if stragglers <= 0 || p.deadLettered > stragglers {
			p.failedFam++
			p.s.obsFamiliesFailed.Inc()
			p.s.obs.Emitf(p.jobID, obs.EvFamilyFailed,
				"family=%s failed: %d steps dead-lettered", st.fam.ID, st.deadLettered)
			return
		}
		// Inside the straggler budget: the family finishes degraded — its
		// validation record ships below with the dead-lettered steps
		// marked OK:false, preserving the partial metadata instead of
		// discarding the whole family.
		p.degradedFam++
		p.s.obs.Emitf(p.jobID, obs.EvFamilyDone,
			"family=%s degraded: %d steps dead-lettered within straggler budget",
			st.fam.ID, st.deadLettered)
	}
	files := make([]string, 0, len(st.fam.FileMeta))
	for f := range st.fam.FileMeta {
		files = append(files, f)
	}
	sort.Strings(files) // map order would make the document differ per run
	rec := validate.Record{
		JobID:     p.jobID,
		FamilyID:  st.fam.ID,
		Store:     st.fam.Store,
		BasePath:  st.fam.BasePath,
		Files:     files,
		Metadata:  st.results,
		Extracted: st.steps,
	}
	buf := fastjson.GetBuf()
	body, err := validate.AppendRecord(*buf, &rec)
	*buf = body
	if err != nil {
		// Unserializable metadata must not vanish silently: surface it
		// through the dead-letter path and fail the family.
		fastjson.PutBuf(buf)
		p.failFamily(st.fam.ID, "result marshal: "+err.Error(), 0)
		return
	}
	p.pendingResults = append(p.pendingResults, body)
	p.pendingBufs = append(p.pendingBufs, buf)
	p.familiesDone++
	p.s.obsFamiliesDone.Inc()
	p.s.obs.Emitf(p.jobID, obs.EvFamilyDone, "family=%s steps=%d", st.fam.ID, len(st.steps))
}

// NewQueues is a convenience constructor for the four queues a service
// needs, named after their paper counterparts.
func NewQueues(clk clock.Clock) (families, prefetch, prefetchDone, results *queue.Queue) {
	return queue.New("crawl-families", clk),
		queue.New("prefetch-tasks", clk),
		queue.New("prefetch-done", clk),
		queue.New("validation-results", clk)
}
