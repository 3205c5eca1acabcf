package core

import (
	"context"
	"sync"
	"time"

	"xtract/internal/faas"
	"xtract/internal/fastjson"
	"xtract/internal/obs"
)

// This file is the dispatch half of the event-driven pipeline: one
// dispatcher shard per endpoint site, fed ready steps by the pump over a
// channel, owning its own batching buckets and outstanding-task set, and
// reporting terminal tasks back through a shared event sink. The pump
// never calls the FaaS fabric directly anymore — shards submit and
// collect concurrently, so multi-site jobs overlap their control-plane
// round trips instead of serializing them through one loop.

// feedDepth bounds the pump→shard step channel. The pump blocks (with
// job-context cancellation) when a shard falls this far behind, which
// back-pressures intake instead of growing memory without bound.
const feedDepth = 1024

// dispatchItem is one dispatch-ready step routed from the pump to a site
// shard, stamped with the time it became ready so the shard can observe
// ready→submitted dispatch latency. files and fetchFrom complete the
// step's payload (stepPayload) at the execution site.
type dispatchItem struct {
	ref       stepRef
	readyAt   time.Time
	files     map[string]string
	fetchFrom string
	// hedge marks a speculative duplicate of a step already running
	// elsewhere. Hedge steps never batch with originals (separate bucket
	// key) so a straggler's duplicate is not delayed behind fresh work.
	hedge bool
}

// bucketKey separates hedge duplicates from first-attempt steps in the
// shard's batching buckets.
type bucketKey struct {
	extractor string
	hedge     bool
}

// shardEvent is one notification from a dispatcher shard back to the
// pump: either a terminal task (info plus the step refs it carried) or a
// dispatch failure, whose steps never reached the fabric and must go
// through the pump's retry/dead-letter path.
type shardEvent struct {
	taskID string
	info   faas.TaskInfo
	refs   []stepRef

	// Dispatch-failure fields. When failed is set, info is meaningless
	// and cause/detail describe why the steps could not be submitted.
	failed bool
	cause  string // "no_function" | "submit_error"
	detail string

	// submitted marks a task-accepted notification (hedging only): the
	// pump records the task, arms its hedge deadline, and notes which
	// task IDs carry which steps, for loser cancellation. hedge marks
	// the submitted task as a speculative duplicate.
	submitted bool
	hedge     bool
}

// shardEventSink fans events from every shard into the pump. The buffer
// is unbounded and the wakeup token coalesced (the channel holds at most
// one), so shards never block on a slow pump and the pump never misses
// an event: it drains after each token and re-blocks.
type shardEventSink struct {
	mu    sync.Mutex
	evs   []shardEvent
	ready chan struct{}
}

func newShardEventSink() *shardEventSink {
	return &shardEventSink{ready: make(chan struct{}, 1)}
}

// Ready returns the sink's coalesced wakeup channel.
func (k *shardEventSink) Ready() <-chan struct{} { return k.ready }

func (k *shardEventSink) push(ev shardEvent) {
	k.mu.Lock()
	k.evs = append(k.evs, ev)
	k.mu.Unlock()
	select {
	case k.ready <- struct{}{}:
	default:
	}
}

// drain returns and clears every pending event, in arrival order.
func (k *shardEventSink) drain() []shardEvent {
	k.mu.Lock()
	out := k.evs
	k.evs = nil
	k.mu.Unlock()
	return out
}

func (k *shardEventSink) pending() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.evs)
}

// dispatcher is one per-site dispatch shard. All fields below feed are
// shard-local: only the shard goroutine touches them, so batching needs
// no locks and shards share nothing but the event sink.
type dispatcher struct {
	s     *Service
	jobID string
	// tenant owns the job; every step fed to this shard holds one of the
	// tenant's fair-share task slots, released here when the step reaches
	// a terminal event (or by the shutdown sweep).
	tenant string
	site   *Site
	feed   chan dispatchItem
	sink   *shardEventSink
	comp   *faas.CompletionSink

	buckets map[bucketKey][]dispatchItem
	reqs    []faas.TaskRequest
	refs    [][]stepRef
	bufs    []*[]byte
	readyAt []time.Time // earliest readyAt per pending request
	hedges  []bool      // hedge flag per pending request
	// out maps each task outstanding on the fabric to the steps it
	// carries.
	out map[string][]stepRef
}

func newDispatcher(s *Service, jobID, tenant string, site *Site, sink *shardEventSink) *dispatcher {
	return &dispatcher{
		s:       s,
		jobID:   jobID,
		tenant:  tenant,
		site:    site,
		feed:    make(chan dispatchItem, feedDepth),
		sink:    sink,
		comp:    faas.NewCompletionSink(),
		buckets: make(map[bucketKey][]dispatchItem),
		out:     make(map[string][]stepRef),
	}
}

// run is the shard loop: drain whatever the pump has fed, flush it to
// the fabric, and forward completion notifications, blocking between
// bursts. The completion sink is the only terminal signal: Notify
// subscribes under the task lock that every terminal transition holds
// (faas task.finish), so each submitted task is delivered exactly once.
func (d *dispatcher) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			d.releaseAbandoned()
			return
		case it := <-d.feed:
			d.intake(it)
		drained:
			for {
				select {
				case it := <-d.feed:
					d.intake(it)
				default:
					break drained
				}
			}
			// The feed went momentarily quiet: the pump's burst is in, so
			// partial batches won't fill soon — flush them now.
			d.flushAll()
		case <-d.comp.Ready():
			for _, info := range d.comp.Drain() {
				d.terminal(info.ID, info)
			}
		}
	}
}

// intake buckets one step; full Xtract batches become tasks immediately
// and full funcX batches submit immediately, exactly as the paper's
// batching layers prescribe.
func (d *dispatcher) intake(it dispatchItem) {
	k := bucketKey{extractor: it.ref.step.Extractor, hedge: it.hedge}
	d.buckets[k] = append(d.buckets[k], it)
	if len(d.buckets[k]) >= d.s.cfg.XtractBatchSize {
		d.makeTask(k)
		if len(d.reqs) >= d.s.cfg.FuncXBatchSize {
			d.submit()
		}
	}
}

// flushAll converts every partial bucket into a task and submits the
// accumulated batch.
func (d *dispatcher) flushAll() {
	for k := range d.buckets {
		d.makeTask(k)
		if len(d.reqs) >= d.s.cfg.FuncXBatchSize {
			d.submit()
		}
	}
	if len(d.reqs) > 0 {
		d.submit()
	}
}

// makeTask turns up to one Xtract batch from the extractor's bucket into
// a pending FaaS request. The extractor's container/endpoint tuple is
// resolved through the registry first — an RDS query on first use,
// served from cache afterwards (the Figure 3 t_xs cost). Resolution
// failures go back to the pump as dispatch-failure events.
func (d *dispatcher) makeTask(k bucketKey) {
	extractor := k.extractor
	items := d.buckets[k]
	if len(items) == 0 {
		delete(d.buckets, k)
		return
	}
	n := d.s.cfg.XtractBatchSize
	if n > len(items) {
		n = len(items)
	}
	batch := items[:n]
	if len(items) == n {
		delete(d.buckets, k)
	} else {
		d.buckets[k] = items[n:]
	}

	steps := make([]stepPayload, 0, len(batch))
	refs := make([]stepRef, 0, len(batch))
	earliest := batch[0].readyAt
	for _, it := range batch {
		steps = append(steps, stepPayload{
			FamilyID: it.ref.famID, GroupID: it.ref.step.GroupID,
			Files: it.files, FetchFrom: it.fetchFrom,
		})
		refs = append(refs, it.ref)
		if it.readyAt.Before(earliest) {
			earliest = it.readyAt
		}
	}

	fid, err := d.s.functionFor(extractor, d.site.Name)
	if err == nil {
		if _, rerr := d.s.cfg.Registry.ResolveExtractor(extractor); rerr != nil {
			err = rerr
		}
	}
	if err != nil {
		d.s.cfg.Tenants.ReleaseTasks(d.tenant, len(refs))
		d.sink.push(shardEvent{failed: true, cause: "no_function", detail: err.Error(), refs: refs})
		return
	}
	tp := taskPayload{
		Extractor:  extractor,
		Site:       d.site.Name,
		Steps:      steps,
		Checkpoint: d.s.cfg.Checkpoint,
	}
	buf := fastjson.GetBuf()
	*buf = encodeTaskPayload(*buf, &tp)
	payload := *buf
	ep := ""
	if cep := d.site.ComputeEndpoint(); cep != nil {
		ep = cep.ID
	}
	d.reqs = append(d.reqs, faas.TaskRequest{FunctionID: fid, EndpointID: ep, Payload: payload})
	d.refs = append(d.refs, refs)
	d.bufs = append(d.bufs, buf)
	d.readyAt = append(d.readyAt, earliest)
	d.hedges = append(d.hedges, k.hedge)
}

// submit sends the accumulated funcX batch and subscribes the shard's
// completion sink to the new tasks. Submission failure loses the whole
// batch: every step goes back to the pump for retry/dead-letter.
func (d *dispatcher) submit() {
	reqs, refs, bufs, readyAt, hedges := d.reqs, d.refs, d.bufs, d.readyAt, d.hedges
	d.reqs, d.refs, d.bufs, d.readyAt, d.hedges = nil, nil, nil, nil, nil
	ids, err := d.s.cfg.FaaS.SubmitBatch(reqs)
	for _, b := range bufs {
		fastjson.PutBuf(b) // SubmitBatch copied every payload
	}
	if err != nil {
		for _, r := range refs {
			d.s.cfg.Tenants.ReleaseTasks(d.tenant, len(r))
			d.sink.push(shardEvent{failed: true, cause: "submit_error", detail: err.Error(), refs: r})
		}
		d.recycle(reqs, refs, bufs, readyAt, hedges)
		return
	}
	now := d.s.clk.Now()
	for i, id := range ids {
		d.out[id] = refs[i]
		d.s.obsDispatchLatency.ObserveDuration(now.Sub(readyAt[i]))
		d.s.obs.Emitf(d.jobID, obs.EvBatchDispatched, "task=%s steps=%d endpoint=%s",
			id, len(refs[i]), reqs[i].EndpointID)
		if d.s.hedge.Enabled {
			// Tell the pump the task is live so it can arm the hedge
			// deadline and map task→steps for loser cancellation.
			d.sink.push(shardEvent{taskID: id, refs: refs[i], submitted: true, hedge: hedges[i]})
		}
	}
	d.s.obsPipelineDepth.Add(float64(len(ids)))
	d.s.cfg.FaaS.Notify(ids, d.comp)
	d.recycle(reqs, refs, bufs, readyAt, hedges)
}

// recycle hands the accumulation slices' backing arrays back for the next
// batch. Their elements escape submit (refs into d.out or shard events,
// payloads into the buffer pool) but the outer arrays do not, so reusing
// them removes four allocations per funcX batch. Elements are cleared so
// the arrays don't pin dead payloads and refs until overwritten.
func (d *dispatcher) recycle(reqs []faas.TaskRequest, refs [][]stepRef, bufs []*[]byte, readyAt []time.Time, hedges []bool) {
	for i := range reqs {
		reqs[i] = faas.TaskRequest{}
	}
	for i := range refs {
		refs[i] = nil
	}
	for i := range bufs {
		bufs[i] = nil
	}
	d.reqs = reqs[:0]
	d.refs = refs[:0]
	d.bufs = bufs[:0]
	d.readyAt = readyAt[:0]
	d.hedges = hedges[:0]
}

// terminal forwards one finished/lost task to the pump.
func (d *dispatcher) terminal(id string, info faas.TaskInfo) {
	refs, ok := d.out[id]
	if !ok {
		return
	}
	delete(d.out, id)
	d.s.obsPipelineDepth.Dec()
	d.s.cfg.Tenants.ReleaseTasks(d.tenant, len(refs))
	d.s.recordSiteOutcome(d.site.Name, info)
	d.sink.push(shardEvent{taskID: id, info: info, refs: refs})
}

// releaseAbandoned returns every fair-share task slot this shard still
// holds when its job context ends: steps buffered in buckets, tasks
// built but not yet submitted, tasks outstanding on the fabric, and
// anything left unread in the feed. Without this sweep a cancelled job
// would permanently shrink the global slot budget.
func (d *dispatcher) releaseAbandoned() {
	n := 0
	for _, items := range d.buckets {
		n += len(items)
	}
	for _, r := range d.refs {
		n += len(r)
	}
	for _, refs := range d.out {
		n += len(refs)
	}
	for {
		select {
		case <-d.feed:
			n++
			continue
		default:
		}
		break
	}
	d.s.cfg.Tenants.ReleaseTasks(d.tenant, n)
}
