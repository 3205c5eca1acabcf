// Package core implements the Xtract service: the orchestrator that
// receives extraction jobs, invokes the crawler, builds dynamic
// extraction plans for file families, places each family on a compute
// site (local or offloaded), stages files through the prefetcher when
// needed, batches extractor invocations at two levels (Xtract batches and
// funcX batches), polls the FaaS fabric for results, handles lost tasks
// via checkpoint/restart, and forwards finished metadata records to the
// validation queue (paper §4).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
)

// Site is one Xtract endpoint: a data layer (store + transfer endpoint)
// and, optionally, a compute layer (a FaaS endpoint with workers).
type Site struct {
	// Name identifies the site ("theta", "midway", "petrel", ...).
	Name string
	// Store is the site's data layer.
	Store store.Store
	// TransferID is the site's endpoint ID in the transfer fabric.
	TransferID string
	// Compute is the site's FaaS endpoint; nil for storage-only sites.
	Compute *faas.Endpoint
	// StagePath is the directory staged (prefetched) files land in.
	StagePath string
	// DeleteStaged removes a family's staged files once the family is
	// terminal (the family_batch.delete_files flag of Listing 1).
	DeleteStaged bool
	// DirectFetch makes workers at this site download remote files
	// per-file through the transfer fabric at extraction time instead of
	// batch-prefetching them — the Globus-HTTPS / Drive-API download
	// path the paper uses for River pods without a shared file system.
	DirectFetch bool
	// ExcludeExtractors lists extractor names whose containers cannot
	// run at this site (e.g., Docker-only extractors on Singularity-only
	// systems); they are not registered here.
	ExcludeExtractors []string
	// StageCapacityBytes bounds how much data may be staged to this site
	// (Listing 2's available_gb); 0 means unlimited. Reservations are
	// conservative: staged bytes are not returned to the budget even when
	// DeleteStaged removes the copies.
	StageCapacityBytes int64

	stagedBytes int64 // reserved staging bytes (pump-thread only)

	// mu guards Compute once the site is registered: jobs read the
	// endpoint while Service.SwapCompute may replace it after an
	// allocation loss.
	mu sync.Mutex
}

// ComputeEndpoint returns the site's current compute endpoint (nil for
// storage-only sites). Use this instead of reading Compute directly once
// the site is registered.
func (s *Site) ComputeEndpoint() *faas.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Compute
}

// setCompute replaces the site's compute endpoint.
func (s *Site) setCompute(ep *faas.Endpoint) {
	s.mu.Lock()
	s.Compute = ep
	s.mu.Unlock()
}

// reserveStage reserves n staging bytes, reporting whether they fit.
func (s *Site) reserveStage(n int64) bool {
	if s.StageCapacityBytes > 0 && s.stagedBytes+n > s.StageCapacityBytes {
		return false
	}
	s.stagedBytes += n
	return true
}

// excludes reports whether the site cannot run the named extractor.
func (s *Site) excludes(name string) bool {
	for _, e := range s.ExcludeExtractors {
		if e == name {
			return true
		}
	}
	return false
}

// HasCompute reports whether the site can execute extractors.
func (s *Site) HasCompute() bool { return s.ComputeEndpoint() != nil }

// state returns the scheduler's placement snapshot.
func (s *Site) state() scheduler.SiteState {
	ep := s.ComputeEndpoint()
	st := scheduler.SiteState{Name: s.Name, HasCompute: ep != nil}
	if ep != nil {
		st.Workers = ep.Workers
		st.QueueDepth = ep.QueueDepth()
	}
	return st
}

// Config wires the Xtract service to its substrates.
type Config struct {
	Clock    clock.Clock
	FaaS     *faas.Service
	Fabric   *transfer.Fabric
	Registry *registry.Registry
	Library  *extractors.Library
	// FamilyQueue is retained for deployments that crawl outside RunJob;
	// jobs themselves crawl into a private per-job queue so concurrent
	// jobs cannot consume each other's families.
	FamilyQueue *queue.Queue
	// PrefetchQueue / PrefetchDone connect to the prefetcher.
	PrefetchQueue *queue.Queue
	PrefetchDone  *queue.Queue
	// ResultQueue receives validate.Record JSON for finished families.
	ResultQueue *queue.Queue
	// Policy decides task placement; nil means LocalPolicy.
	Policy scheduler.Policy
	// XtractBatchSize is how many plan steps ride in one FaaS task.
	XtractBatchSize int
	// FuncXBatchSize is how many FaaS tasks ride in one submit call.
	FuncXBatchSize int
	// Checkpoint enables per-step checkpointing at the endpoints.
	Checkpoint bool
	// Obs is the runtime observability layer (nil disables live metrics
	// and per-job event traces at near-zero cost).
	Obs *obs.Observer
	// Retry bounds per-step retry/backoff and the per-job retry budget
	// applied to lost and failed extraction steps; zero fields take the
	// DefaultRetryPolicy values.
	Retry RetryPolicy
	// ExtractFaults, when set, injects extractor failures and panics into
	// step execution (chaos testing; internal/faultinject satisfies it).
	ExtractFaults extractors.FaultHook
	// Cache, when set, is the extraction result cache keyed by (group
	// content hash, extractor, extractor version): steps whose key hits
	// replay validated metadata instead of dispatching a FaaS task, and
	// fresh results are written back on completion. Configuring a cache
	// also turns on crawl-time content fingerprinting for jobs (see
	// crawler.Crawler.Fingerprint); per-job JobOptions.NoCache opts out.
	Cache *cache.Cache
	// Journal, when set, is the durable write-ahead log the service
	// appends at every job state transition; Recover replays it after a
	// restart. Nil disables durability (pure in-memory operation).
	Journal *journal.Journal
	// Tenants, when set, enforces per-tenant rate limits, job quotas,
	// and weighted fair-share task admission, and keeps per-tenant cost
	// accounting. Nil disables tenancy (single-user operation).
	Tenants *tenant.Controller
	// Cluster, when set, is this node's handle on the multi-node
	// coordination layer: jobs run under a renewable ownership lease,
	// and journal appends for jobs this node no longer owns are fenced
	// (dropped and counted) instead of written. Nil disables clustering
	// (single-node operation).
	Cluster *cluster.Node
	// Hedge configures hedged speculative execution: tasks exceeding
	// their extractor's adaptive deadline are duplicated to another site,
	// first result wins. Disabled by default.
	Hedge HedgePolicy
	// Breakers configures per-site circuit breakers over task outcomes.
	// Disabled by default.
	Breakers BreakerPolicy
	// Shed configures overload shedding at the API front door (consulted
	// via ShedCheck). Disabled by default.
	Shed ShedPolicy
	// StragglerBudget, when positive, lets a job finish DEGRADED with
	// partial results when at most this many steps dead-lettered (and no
	// family failed outright for placement/staging reasons) instead of
	// failing the whole job. Zero keeps the strict FAILED semantics.
	StragglerBudget int
}

// ShedPolicy configures overload shedding: when either watermark is
// crossed, new job submissions are refused with 503 + Retry-After
// instead of admitted into a pipeline that cannot serve them.
type ShedPolicy struct {
	// Enabled turns shedding on.
	Enabled bool
	// MaxQueueDepth sheds when the summed compute-endpoint queue depth
	// reaches this many tasks (0 = no queue-depth watermark).
	MaxQueueDepth int
	// SlotHighWatermark sheds when the global in-flight task slots in use
	// reach this fraction of the tenant controller's TaskSlots budget
	// (0 = no slot watermark; needs a controller with TaskSlots set).
	SlotHighWatermark float64
	// RetryAfter is the hint returned with the 503 (default 1s).
	RetryAfter time.Duration
}

// Service is the Xtract orchestrator.
type Service struct {
	cfg Config
	clk clock.Clock

	mu    sync.Mutex
	sites map[string]*Site
	// functions maps (extractor, site) to the registered FaaS function ID.
	functions map[[2]string]string
	// containerOf maps container name to its registered ID.
	containerOf map[string]string

	// ColdStartCost is the container cold-start charged when an extractor
	// container first starts on an endpoint (Table 3 reports ~70 s; tests
	// and examples use smaller values).
	ColdStartCost time.Duration

	// retry is cfg.Retry with defaults applied.
	retry RetryPolicy
	// hedge is cfg.Hedge with defaults applied; estimator is the shared
	// per-extractor runtime estimator behind its adaptive deadlines (nil
	// when hedging is off — deadlines then fall back to the heartbeat
	// timeout).
	hedge     HedgePolicy
	estimator *latencyEstimator
	// breakers holds one circuit breaker per site (lazily created; all
	// nil when cfg.Breakers is disabled).
	breakerPol BreakerPolicy
	breakerMu  sync.Mutex
	breakers   map[string]*breaker

	// Live observability handles resolved from cfg.Obs (nil-safe).
	obs                 *obs.Observer
	obsJobs             *obs.CounterVec
	obsJobsActive       *obs.Gauge
	obsFamiliesDone     *obs.Counter
	obsFamiliesFailed   *obs.Counter
	obsGroupsProcessed  *obs.Counter
	obsStepsFailed      *obs.Counter
	obsTasksResubmitted *obs.Counter
	obsBytesStaged      *obs.Counter
	obsRetries          *obs.CounterVec
	obsRetryBackoff     *obs.Histogram
	obsDeadLetters      *obs.CounterVec
	obsBudgetExhausted  *obs.Counter
	obsStepDuration     *obs.HistogramVec
	obsCacheHits        *obs.Counter
	obsCacheMisses      *obs.Counter
	obsCacheEvictions   *obs.Counter
	obsCrawlDirs        *obs.Counter
	obsCrawlFiles       *obs.Counter
	obsCrawlGroups      *obs.Counter
	obsCrawlFamilies    *obs.Counter
	obsCrawlBytes       *obs.Counter
	obsCrawlErrors      *obs.Counter
	obsPumpWakeups      *obs.CounterVec
	obsDispatchLatency  *obs.Histogram
	obsPipelineDepth    *obs.Gauge
	obsJournalAppends   *obs.CounterVec
	obsJournalErrors    *obs.Counter
	obsJournalFsync     *obs.Histogram
	obsRecoveredJobs    *obs.CounterVec
	obsRecoverySteps    *obs.Counter
	obsRecoverySeconds  *obs.Histogram
	obsClusterFenced    *obs.Counter
	obsHedges           *obs.Counter
	obsHedgeWins        *obs.Counter
	obsHedgeFenced      *obs.Counter
	obsHedgeCancelled   *obs.Counter
	obsShedTotal        *obs.Counter

	// Pre-resolved hot-path handles: the pump, dispatcher, and journal
	// hook emit millions of events per run, so their known label values
	// are resolved to series handles once at construction instead of
	// re-resolving a *Vec.With per event. Unknown values (new extractors,
	// future record types) fall back to With through the helpers below.
	obsWakeupBy      map[string]*obs.Counter
	obsRetryBy       map[string]*obs.Counter
	obsJobStateBy    map[registry.JobState]*obs.Counter
	obsJournalBy     map[string]*obs.Counter
	obsDeadLetterFam *obs.Counter
	obsDeadLetterStp *obs.Counter
	obsStepDurBy     sync.Map // extractor name -> *obs.Histogram

	// draining is set by BeginShutdown: job contexts are about to be
	// cancelled for a restart, so the cancellations must not be journaled
	// as user cancels (the jobs should resume on recovery).
	draining atomic.Bool

	// recovery guards the one-shot Recover pass and its published status.
	recoveryMu   sync.Mutex
	recoveryDone bool
	recovery     RecoveryStatus
	recoveryWG   sync.WaitGroup
}

// New constructs the service. Call AddSite and RegisterExtractors before
// running jobs.
func New(cfg Config) *Service {
	if cfg.Policy == nil {
		cfg.Policy = scheduler.LocalPolicy{}
	}
	if cfg.XtractBatchSize < 1 {
		cfg.XtractBatchSize = 8
	}
	if cfg.FuncXBatchSize < 1 {
		cfg.FuncXBatchSize = 16
	}
	s := &Service{
		cfg:           cfg,
		clk:           cfg.Clock,
		sites:         make(map[string]*Site),
		functions:     make(map[[2]string]string),
		containerOf:   make(map[string]string),
		ColdStartCost: 0,
		obs:           cfg.Obs,
		retry:         cfg.Retry.withDefaults(),
		hedge:         cfg.Hedge.withDefaults(),
		breakerPol:    cfg.Breakers.withDefaults(),
		breakers:      make(map[string]*breaker),
	}
	if s.hedge.Enabled {
		s.estimator = newLatencyEstimator(s.hedge)
	}
	reg := cfg.Obs.Reg()
	s.obsJobs = reg.CounterVec("xtract_jobs_total",
		"Extraction jobs by terminal state.", "state")
	s.obsJobsActive = reg.Gauge("xtract_jobs_active",
		"Extraction jobs currently running.")
	s.obsFamiliesDone = reg.Counter("xtract_families_done_total",
		"Families whose extraction plans completed.")
	s.obsFamiliesFailed = reg.Counter("xtract_families_failed_total",
		"Families abandoned (no placement, staging failure, or capacity).")
	s.obsGroupsProcessed = reg.Counter("xtract_groups_processed_total",
		"Group-extractor steps completed successfully.")
	s.obsStepsFailed = reg.Counter("xtract_steps_failed_total",
		"Group-extractor steps that failed.")
	s.obsTasksResubmitted = reg.Counter("xtract_tasks_resubmitted_total",
		"FaaS tasks resubmitted after being lost.")
	s.obsBytesStaged = reg.Counter("xtract_bytes_staged_total",
		"Bytes staged to remote compute sites by the prefetcher.")
	s.obsRetries = reg.CounterVec("xtract_retry_total",
		"Step retries scheduled, by failure cause.", "reason")
	s.obsRetryBackoff = reg.Histogram("xtract_retry_backoff_seconds",
		"Backoff delays scheduled before step retries.", nil)
	s.obsDeadLetters = reg.CounterVec("xtract_deadletter_total",
		"Poison tasks quarantined after exhausting their retries.", "kind")
	s.obsBudgetExhausted = reg.Counter("xtract_retry_budget_exhausted_total",
		"Retries denied because the per-job retry budget was spent.")
	s.obsStepDuration = reg.HistogramVec("xtract_step_duration_seconds",
		"Extractor execution time per step.", nil, "extractor")
	s.obsCacheHits = reg.Counter("xtract_cache_hits_total",
		"Extraction steps answered by the result cache (no FaaS dispatch).")
	s.obsCacheMisses = reg.Counter("xtract_cache_misses_total",
		"Result cache lookups answered by neither cache layer.")
	s.obsCacheEvictions = reg.Counter("xtract_cache_evictions_total",
		"Result cache entries displaced by the in-memory LRU bound.")
	s.obsCrawlDirs = reg.Counter("xtract_crawl_dirs_listed_total",
		"Directories listed by crawlers.")
	s.obsCrawlFiles = reg.Counter("xtract_crawl_files_seen_total",
		"Files seen by crawlers.")
	s.obsCrawlGroups = reg.Counter("xtract_crawl_groups_formed_total",
		"File groups formed by crawlers.")
	s.obsCrawlFamilies = reg.Counter("xtract_crawl_families_emitted_total",
		"Families emitted onto the family queue by crawlers.")
	s.obsCrawlBytes = reg.Counter("xtract_crawl_bytes_seen_total",
		"File bytes discovered by crawlers.")
	s.obsCrawlErrors = reg.Counter("xtract_crawl_list_errors_total",
		"Directory listings that failed during crawls.")
	s.obsPumpWakeups = reg.CounterVec("xtract_pump_wakeups_total",
		"Orchestration-loop wakeups by triggering event source.", "reason")
	s.obsDispatchLatency = reg.Histogram("xtract_dispatch_latency_seconds",
		"Time from a step becoming dispatch-ready to its FaaS batch submission.", nil)
	s.obsPipelineDepth = reg.Gauge("xtract_pipeline_depth",
		"FaaS tasks in flight across all dispatcher shards.")
	s.obsJournalAppends = reg.CounterVec("xtract_journal_appends_total",
		"Durable journal appends by record type.", "type")
	s.obsJournalErrors = reg.Counter("xtract_journal_append_errors_total",
		"Journal appends that failed (the transition proceeded un-journaled).")
	s.obsJournalFsync = reg.Histogram("xtract_journal_fsync_seconds",
		"Journal group-commit fsync batch durations.", nil)
	s.obsRecoveredJobs = reg.CounterVec("xtract_recovery_jobs_total",
		"Jobs restored from the journal at startup, by disposition.", "disposition")
	s.obsRecoverySteps = reg.Counter("xtract_recovery_steps_reconciled_total",
		"Journaled step completions seeded into the result cache at recovery.")
	s.obsRecoverySeconds = reg.Histogram("xtract_recovery_seconds",
		"Wall time of the journal recovery pass (replay through resume).", nil)
	s.obsClusterFenced = reg.Counter("xtract_cluster_fenced_appends_total",
		"Journal appends dropped because this node's job lease was lost.")
	s.obsHedges = reg.Counter("xtract_hedges_total",
		"Duplicate step attempts dispatched after a task exceeded its adaptive deadline.")
	s.obsHedgeWins = reg.Counter("xtract_hedge_wins_total",
		"Steps whose hedged duplicate finished before the original attempt.")
	s.obsHedgeFenced = reg.Counter("xtract_hedge_fenced_total",
		"Duplicate step completions discarded by the exactly-once fence.")
	s.obsHedgeCancelled = reg.Counter("xtract_hedge_cancelled_total",
		"Losing attempts cancelled after a sibling completed first.")
	s.obsShedTotal = reg.Counter("xtract_shed_total",
		"Job submissions refused by overload shedding (503 + Retry-After).")
	s.obsWakeupBy = make(map[string]*obs.Counter)
	for _, reason := range []string{
		"start", "crawl", "families", "staged", "events", "retry", "hedge", "idle",
	} {
		s.obsWakeupBy[reason] = s.obsPumpWakeups.With(reason)
	}
	s.obsRetryBy = make(map[string]*obs.Counter)
	for _, cause := range []string{
		"lost", "failed", "staging", "step_error", "bad_result", "no_function",
	} {
		s.obsRetryBy[cause] = s.obsRetries.With(cause)
	}
	s.obsJobStateBy = make(map[registry.JobState]*obs.Counter)
	for _, st := range []registry.JobState{
		registry.JobCrawling, registry.JobExtracting, registry.JobComplete,
		registry.JobFailed, registry.JobCancelled, registry.JobDegraded,
	} {
		s.obsJobStateBy[st] = s.obsJobs.With(string(st))
	}
	s.obsJournalBy = make(map[string]*obs.Counter)
	for _, typ := range []string{
		journal.RecJobSubmitted, journal.RecFamilyEnqueued,
		journal.RecStepCompleted, journal.RecStepRetried,
		journal.RecStepDeadLettered, journal.RecFamilyFailed,
		journal.RecJobCancelled, journal.RecJobTerminal,
		journal.RecLeaseAcquired, journal.RecLeaseRenewed,
		journal.RecLeaseReleased,
	} {
		s.obsJournalBy[typ] = s.obsJournalAppends.With(typ)
	}
	s.obsDeadLetterFam = s.obsDeadLetters.With("family")
	s.obsDeadLetterStp = s.obsDeadLetters.With("step")
	if cfg.Cache != nil {
		cfg.Cache.SetEvictionHook(func() { s.obsCacheEvictions.Inc() })
	}
	if cfg.Journal != nil {
		cfg.Journal.Observe(
			func(recType string) { s.journalAppendCounter(recType).Inc() },
			func(d time.Duration) { s.obsJournalFsync.ObserveDuration(d) },
		)
	}
	return s
}

// breakerFor returns (lazily creating) the site's circuit breaker; nil
// when breakers are disabled. First use registers the site's
// xtract_breaker_state gauge.
func (s *Service) breakerFor(site string) *breaker {
	if !s.breakerPol.Enabled {
		return nil
	}
	s.breakerMu.Lock()
	b, ok := s.breakers[site]
	if !ok {
		b = newBreaker(s.breakerPol, s.clk)
		s.breakers[site] = b
		s.cfg.Obs.Reg().GaugeFunc("xtract_breaker_state",
			"Per-site circuit breaker state (0 closed, 1 half-open, 2 open).",
			map[string]string{"site": site},
			func() float64 { return float64(b.State()) })
	}
	s.breakerMu.Unlock()
	return b
}

// recordSiteOutcome feeds one terminal task into the site's breaker.
// Cancelled hedge losers are skipped: the kill is ours, not the site's.
func (s *Service) recordSiteOutcome(site string, info faas.TaskInfo) {
	if !s.breakerPol.Enabled {
		return
	}
	if info.Status == faas.TaskFailed && info.Err == errTaskCancelledText {
		return
	}
	s.breakerFor(site).Record(info.Status == faas.TaskSuccess)
}

// errTaskCancelledText is the fabric's cancellation error string,
// resolved once — hot paths compare against it instead of allocating.
var errTaskCancelledText = faas.ErrTaskCancelled.Error()

// ShedCheck reports whether a new job submission should be refused for
// overload, and the Retry-After hint to return with the 503. Consulted
// by the API front door before tenant admission.
func (s *Service) ShedCheck() (time.Duration, bool) {
	pol := s.cfg.Shed
	if !pol.Enabled {
		return 0, false
	}
	retry := pol.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	if pol.SlotHighWatermark > 0 {
		if used, total := s.cfg.Tenants.SlotPressure(); total > 0 &&
			float64(used) >= pol.SlotHighWatermark*float64(total) {
			s.obsShedTotal.Inc()
			return retry, true
		}
	}
	if pol.MaxQueueDepth > 0 {
		depth := 0
		s.mu.Lock()
		for _, site := range s.sites {
			if ep := site.ComputeEndpoint(); ep != nil {
				depth += ep.QueueDepth()
			}
		}
		s.mu.Unlock()
		if depth >= pol.MaxQueueDepth {
			s.obsShedTotal.Inc()
			return retry, true
		}
	}
	return 0, false
}

// wakeupCounter returns the cached counter for a pump wakeup reason.
func (s *Service) wakeupCounter(reason string) *obs.Counter {
	if c, ok := s.obsWakeupBy[reason]; ok {
		return c
	}
	return s.obsPumpWakeups.With(reason)
}

// retryCounter returns the cached counter for a retry cause.
func (s *Service) retryCounter(cause string) *obs.Counter {
	if c, ok := s.obsRetryBy[cause]; ok {
		return c
	}
	return s.obsRetries.With(cause)
}

// jobStateCounter returns the cached counter for a job terminal state.
func (s *Service) jobStateCounter(state registry.JobState) *obs.Counter {
	if c, ok := s.obsJobStateBy[state]; ok {
		return c
	}
	return s.obsJobs.With(string(state))
}

// journalAppendCounter returns the cached counter for a journal record
// type. Runs on the journal append path (every durable transition).
func (s *Service) journalAppendCounter(recType string) *obs.Counter {
	if c, ok := s.obsJournalBy[recType]; ok {
		return c
	}
	return s.obsJournalAppends.With(recType)
}

// stepDurationHist returns the cached per-extractor step-duration
// histogram, resolving and caching it on first use (extractor names are
// not known at construction time).
func (s *Service) stepDurationHist(extractor string) *obs.Histogram {
	if h, ok := s.obsStepDurBy.Load(extractor); ok {
		return h.(*obs.Histogram)
	}
	h := s.obsStepDuration.With(extractor)
	actual, _ := s.obsStepDurBy.LoadOrStore(extractor, h)
	return actual.(*obs.Histogram)
}

// journalAppend writes one record to the configured journal. Nil-safe: a
// service without a journal skips it at near-zero cost. Append errors are
// counted, not fatal — the in-memory transition already happened, and a
// full disk must degrade durability, not correctness.
func (s *Service) journalAppend(rec journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if s.fenced(rec) {
		return
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.obsJournalErrors.Inc()
	}
}

// fenced reports whether rec must be dropped because this node's lease
// on the record's job is no longer live — the write-side half of
// split-brain protection: a node that lost a job to a peer cannot
// corrupt the job's journaled history with late appends. Submission
// records are exempt (the lease is taken right after them), as are
// lease records themselves (the coordinator, not the lessee, is
// authoritative for those).
func (s *Service) fenced(rec journal.Record) bool {
	if s.cfg.Cluster == nil || rec.JobID == "" {
		return false
	}
	switch rec.Type {
	case journal.RecJobSubmitted, journal.RecLeaseAcquired,
		journal.RecLeaseRenewed, journal.RecLeaseReleased:
		return false
	}
	if s.cfg.Cluster.HoldsLive(rec.JobID) {
		return false
	}
	s.obsClusterFenced.Inc()
	return true
}

// BeginShutdown marks the service as draining for a graceful stop: job
// contexts cancelled from here on are treated as a restart in progress —
// their jobs are NOT journaled as cancelled or failed, so recovery
// resumes them — and new journal appends for terminal states are
// suppressed. Call it before cancelling the deployment context.
func (s *Service) BeginShutdown() { s.draining.Store(true) }

// Draining reports whether BeginShutdown was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// JournalEnabled reports whether a durable journal is configured.
func (s *Service) JournalEnabled() bool { return s.cfg.Journal != nil }

// CacheStats snapshots the extraction result cache; ok is false when no
// cache is configured.
func (s *Service) CacheStats() (stats cache.Stats, ok bool) {
	if s.cfg.Cache == nil {
		return cache.Stats{}, false
	}
	return s.cfg.Cache.Stats(), true
}

// extractorVersion resolves an extractor's cache-version stamp through
// the library; unknown extractors get the default stamp (their steps can
// only hit entries written under the same default).
func (s *Service) extractorVersion(name string) string {
	ext, err := s.cfg.Library.Get(name)
	if err != nil {
		return extractors.DefaultVersion
	}
	return extractors.VersionOf(ext)
}

// AddSite registers an endpoint with the service. The site's store name
// must equal the name crawled families carry.
func (s *Service) AddSite(site *Site) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites[site.Name] = site
}

// Site returns a registered site.
func (s *Service) Site(name string) (*Site, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	site, ok := s.sites[name]
	return site, ok
}

// Sites lists registered site names, sorted.
func (s *Service) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sites))
	for n := range s.sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterExtractors registers every library extractor as a FaaS
// function (one per compute site, closing over that site's data layer)
// and records the address tuples in the registry — the paper's
// function:container:endpoint registration flow.
func (s *Service) RegisterExtractors() error {
	s.mu.Lock()
	sites := make([]*Site, 0, len(s.sites))
	for _, site := range s.sites {
		sites = append(sites, site)
	}
	s.mu.Unlock()
	sort.Slice(sites, func(i, j int) bool { return sites[i].Name < sites[j].Name })

	for _, name := range s.cfg.Library.Names() {
		ext, err := s.cfg.Library.Get(name)
		if err != nil {
			return err
		}
		containerName := ext.Container()
		s.mu.Lock()
		cid, ok := s.containerOf[containerName]
		if !ok {
			cid = s.cfg.FaaS.RegisterContainer(containerName, s.ColdStartCost)
			s.containerOf[containerName] = cid
		}
		s.mu.Unlock()

		var endpointIDs []string
		for _, site := range sites {
			ep := site.ComputeEndpoint()
			if ep == nil || site.excludes(name) {
				continue
			}
			handler := s.makeHandler(site, ext)
			fid, err := s.cfg.FaaS.RegisterFunction(
				fmt.Sprintf("%s@%s", name, site.Name), handler, cid)
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.functions[[2]string{name, site.Name}] = fid
			s.mu.Unlock()
			endpointIDs = append(endpointIDs, ep.ID)
		}
		s.cfg.Registry.PutExtractor(registry.ExtractorRecord{
			Name:        name,
			FunctionID:  fmt.Sprintf("multi:%s", name),
			ContainerID: cid,
			EndpointIDs: endpointIDs,
		})
	}
	return nil
}

// SwapCompute replaces a site's compute endpoint, e.g. after its
// allocation was lost and a replacement was provisioned. The new endpoint
// must already be registered and started on the FaaS service; call
// RegisterExtractors again afterwards so extractor functions resolve to
// it. Safe to call while jobs are running — in-flight tasks on the old
// endpoint surface as LOST and are retried onto the new one.
func (s *Service) SwapCompute(siteName string, ep *faas.Endpoint) error {
	s.mu.Lock()
	site, ok := s.sites[siteName]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown site %q", siteName)
	}
	site.setCompute(ep)
	return nil
}

// functionFor resolves the FaaS function for an extractor at a site.
func (s *Service) functionFor(extractor, site string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fid, ok := s.functions[[2]string{extractor, site}]
	if !ok {
		return "", fmt.Errorf("core: extractor %s not registered at site %s", extractor, site)
	}
	return fid, nil
}
