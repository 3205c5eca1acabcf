// Package faas implements the federated Function-as-a-Service fabric that
// Xtract builds on — an in-process funcX: a central service where
// functions, containers, and endpoints are registered; batch task
// submission and batch polling; containerized workers with cold/warm
// starts; heartbeats; and lost-task detection when an endpoint's
// allocation ends (the Figure 8 checkpoint/restart path).
package faas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/metrics"
	"xtract/internal/obs"
)

// Errors returned by the service.
var (
	ErrUnknownFunction  = errors.New("faas: unknown function")
	ErrUnknownEndpoint  = errors.New("faas: unknown endpoint")
	ErrUnknownTask      = errors.New("faas: unknown task")
	ErrUnknownContainer = errors.New("faas: unknown container")
	ErrEndpointStopped  = errors.New("faas: endpoint stopped")
	// ErrTaskCancelled is the error recorded on tasks killed via
	// CancelTask — hedged duplicates whose sibling attempt won.
	ErrTaskCancelled = errors.New("faas: task cancelled")
)

// Handler is the code behind a registered function. Payloads are opaque
// bytes (Xtract serializes family batches into them); results likewise.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// FaultHook injects failures into the fabric for chaos testing.
// internal/faultinject satisfies it structurally; a nil hook is a no-op.
type FaultHook interface {
	// DispatchFault may fail the service→endpoint delivery of one task;
	// a non-nil error marks the task lost without reaching the endpoint.
	DispatchFault(endpointID string) error
	// HeartbeatDrop silences one heartbeat tick of the endpoint.
	HeartbeatDrop(endpointID string) bool
	// EndpointCrash stops the endpoint at a heartbeat tick, simulating
	// an allocation ending mid-run.
	EndpointCrash(endpointID string) bool
}

// SlowFaultHook is an optional FaultHook extension: hooks that also
// implement it may stretch one task execution by the returned duration
// (zero = full speed), modeling a straggler worker without failing the
// task. Kept separate from FaultHook so existing hook implementations
// stay valid.
type SlowFaultHook interface {
	SlowFault(endpointID string) time.Duration
}

// TaskStatus is the lifecycle state of a submitted task.
type TaskStatus int

// Task states.
const (
	TaskPending TaskStatus = iota
	TaskRunning
	TaskSuccess
	TaskFailed
	// TaskLost means the executing endpoint disappeared (allocation ended
	// or heartbeat expired) before the task completed. Callers should
	// resubmit, as Xtract does for whole families.
	TaskLost
)

// String implements fmt.Stringer.
func (s TaskStatus) String() string {
	switch s {
	case TaskPending:
		return "PENDING"
	case TaskRunning:
		return "RUNNING"
	case TaskSuccess:
		return "SUCCESS"
	case TaskFailed:
		return "FAILED"
	case TaskLost:
		return "LOST"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Terminal reports whether the status is final.
func (s TaskStatus) Terminal() bool {
	return s == TaskSuccess || s == TaskFailed || s == TaskLost
}

// TaskRequest asks for one function invocation on one endpoint.
type TaskRequest struct {
	FunctionID string
	EndpointID string
	Payload    []byte
}

// TaskInfo is a polled snapshot of a task.
type TaskInfo struct {
	ID         string
	FunctionID string
	EndpointID string
	Status     TaskStatus
	Result     []byte
	Err        string
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
}

// Costs models the control-plane latencies of the FaaS service, the knobs
// behind the paper's Figure 3 breakdown. All default to zero.
type Costs struct {
	// AuthPerRequest models Globus Auth validation per web request.
	AuthPerRequest time.Duration
	// SubmitPerBatch is charged once per SubmitBatch call, regardless of
	// batch size — this is what funcX batching amortizes.
	SubmitPerBatch time.Duration
	// SubmitPerTask is charged per task within a batch (serialization).
	SubmitPerTask time.Duration
	// DispatchPerTask is the service→endpoint delivery latency.
	DispatchPerTask time.Duration
	// ResultPerTask is the endpoint→service result return latency.
	ResultPerTask time.Duration
}

type function struct {
	id        string
	name      string
	handler   Handler
	container string
}

type task struct {
	mu      sync.Mutex
	info    TaskInfo
	payload []byte
	doneCh  chan struct{}
	// subs are completion sinks to notify when the task turns terminal.
	subs []*CompletionSink
}

// finish is the task's one terminal transition: under the task lock it
// records the final status, error text, result, and finish time, closes
// doneCh, and takes the subscriber list; it then pushes the final
// snapshot to each subscriber and returns it. It returns false, changing
// nothing, when the task already was terminal (e.g., marked lost while
// its handler was still running). Notify registers under the same lock,
// so every sink sees each task exactly once.
func (t *task) finish(status TaskStatus, errText string, result []byte, finished time.Time) (TaskInfo, bool) {
	t.mu.Lock()
	if t.info.Status.Terminal() {
		t.mu.Unlock()
		return TaskInfo{}, false
	}
	t.info.Status = status
	t.info.Err = errText
	t.info.Result = result
	t.info.Finished = finished
	close(t.doneCh)
	info := t.info
	subs := t.subs
	t.subs = nil
	t.mu.Unlock()
	for _, sub := range subs {
		sub.push(info)
	}
	return info, true
}

// CompletionSink is a terminal-event subscription endpoint: tasks
// registered on it via Service.Notify deliver their final TaskInfo here
// the moment they turn terminal. Wakeups are coalesced (Ready holds at
// most one token) and delivery never blocks the fabric, so one sink can
// fan in completions from any number of tasks; consumers drain with
// Drain after each Ready token.
type CompletionSink struct {
	mu    sync.Mutex
	done  []TaskInfo
	ready chan struct{}
}

// NewCompletionSink returns an empty sink.
func NewCompletionSink() *CompletionSink {
	return &CompletionSink{ready: make(chan struct{}, 1)}
}

// Ready returns the sink's coalesced wakeup channel: a token arrives when
// completions are pending. Consume the token, Drain, and block again.
func (c *CompletionSink) Ready() <-chan struct{} { return c.ready }

// Drain returns and clears every pending completion, in arrival order.
func (c *CompletionSink) Drain() []TaskInfo {
	c.mu.Lock()
	out := c.done
	c.done = nil
	c.mu.Unlock()
	return out
}

// Pending reports how many completions await Drain.
func (c *CompletionSink) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// push appends one completion and sets the wakeup token (non-blocking).
func (c *CompletionSink) push(info TaskInfo) {
	c.mu.Lock()
	c.done = append(c.done, info)
	c.mu.Unlock()
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// Service is the central FaaS web service.
type Service struct {
	clk   clock.Clock
	costs Costs

	mu         sync.Mutex
	functions  map[string]*function
	containers map[string]time.Duration // container -> cold start cost
	endpoints  map[string]*Endpoint
	tasks      map[string]*task
	seq        int

	// HeartbeatTimeout: endpoints whose last heartbeat is older than this
	// are considered dead and their in-flight tasks marked lost.
	HeartbeatTimeout time.Duration
	lastHeartbeat    map[string]time.Time

	// faults, when set, injects dispatch/heartbeat/crash failures.
	faults FaultHook

	TasksSubmitted metrics.Counter
	TasksCompleted metrics.Counter
	TasksLost      metrics.Counter
	HandlerPanics  metrics.Counter

	// Observability handles (nil-safe when Instrument is never called).
	obsReg         *obs.Registry
	obsSubmitted   *obs.Counter
	obsCompleted   *obs.Counter
	obsFailed      *obs.Counter
	obsLost        *obs.Counter
	obsTaskLatency *obs.Histogram
	obsColdStarts  *obs.Counter
	obsColdStart   *obs.Histogram
	obsWarmHits    *obs.Counter
	obsPanics      *obs.Counter
}

// SetFaults installs (or clears, with nil) the fabric's fault hook.
func (s *Service) SetFaults(h FaultHook) {
	s.mu.Lock()
	s.faults = h
	s.mu.Unlock()
}

// faultHook reads the installed hook; nil means no injection.
func (s *Service) faultHook() FaultHook {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// NewService returns an empty service with the given control-plane costs.
func NewService(clk clock.Clock, costs Costs) *Service {
	return &Service{
		clk:              clk,
		costs:            costs,
		functions:        make(map[string]*function),
		containers:       make(map[string]time.Duration),
		endpoints:        make(map[string]*Endpoint),
		tasks:            make(map[string]*task),
		lastHeartbeat:    make(map[string]time.Time),
		HeartbeatTimeout: 30 * time.Second,
	}
}

// Instrument registers the fabric's live metrics on the observability
// registry: task lifecycle counters, the end-to-end task latency
// histogram, container cold/warm start telemetry, and a per-endpoint
// queue-depth gauge for every endpoint (including ones registered after
// this call).
func (s *Service) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsSubmitted = reg.Counter("xtract_faas_tasks_submitted_total",
		"Tasks submitted to the FaaS fabric.")
	s.obsCompleted = reg.Counter("xtract_faas_tasks_completed_total",
		"Tasks that finished successfully.")
	s.obsFailed = reg.Counter("xtract_faas_tasks_failed_total",
		"Tasks whose handler returned an error.")
	s.obsLost = reg.Counter("xtract_faas_tasks_lost_total",
		"Tasks lost to a dead endpoint or failed dispatch.")
	s.obsTaskLatency = reg.Histogram("xtract_faas_task_latency_seconds",
		"Submit-to-finish latency of successful and failed tasks.", nil)
	s.obsColdStarts = reg.Counter("xtract_faas_cold_starts_total",
		"Container cold starts across all endpoints.")
	s.obsColdStart = reg.Histogram("xtract_faas_cold_start_seconds",
		"Container cold-start durations.", nil)
	s.obsWarmHits = reg.Counter("xtract_faas_warm_hits_total",
		"Container acquisitions served from the warm pool.")
	s.obsPanics = reg.Counter("xtract_faas_handler_panics_total",
		"Handler panics recovered by endpoint workers.")
	s.mu.Lock()
	s.obsReg = reg
	eps := make([]*Endpoint, 0, len(s.endpoints))
	for _, ep := range s.endpoints {
		eps = append(eps, ep)
	}
	s.mu.Unlock()
	for _, ep := range eps {
		s.instrumentEndpoint(reg, ep)
	}
}

// instrumentEndpoint registers the endpoint's queue-depth gauge and
// refreshes its container manager's shared handles (covers endpoints
// registered before Instrument was called).
func (s *Service) instrumentEndpoint(reg *obs.Registry, ep *Endpoint) {
	reg.GaugeFunc("xtract_faas_queue_depth", "Tasks waiting on the endpoint's local queue.",
		map[string]string{"endpoint": ep.ID},
		func() float64 { return float64(ep.QueueDepth()) })
	if cm := ep.containers; cm != nil {
		cm.obsColdStarts = s.obsColdStarts
		cm.obsColdStart = s.obsColdStart
		cm.obsWarmHits = s.obsWarmHits
	}
}

// RegisterContainer records a container image and its cold-start cost,
// returning its ID.
func (s *Service) RegisterContainer(name string, coldStart time.Duration) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("cont-%d-%s", s.seq, name)
	s.containers[id] = coldStart
	return id
}

// RegisterFunction registers handler under a new function ID. containerID
// names the runtime environment the function must execute in ("" for
// bare execution).
func (s *Service) RegisterFunction(name string, h Handler, containerID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if containerID != "" {
		if _, ok := s.containers[containerID]; !ok {
			return "", fmt.Errorf("%w: %s", ErrUnknownContainer, containerID)
		}
	}
	s.seq++
	id := fmt.Sprintf("func-%d-%s", s.seq, name)
	s.functions[id] = &function{id: id, name: name, handler: h, container: containerID}
	return id, nil
}

// RegisterEndpoint attaches an endpoint to the service.
func (s *Service) RegisterEndpoint(ep *Endpoint) {
	s.mu.Lock()
	s.endpoints[ep.ID] = ep
	s.lastHeartbeat[ep.ID] = s.clk.Now()
	reg := s.obsReg
	s.mu.Unlock()
	ep.attach(s)
	if reg != nil {
		s.instrumentEndpoint(reg, ep)
	}
}

// ColdStart returns the registered cold-start cost of a container.
func (s *Service) ColdStart(containerID string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.containers[containerID]
}

// SubmitBatch submits a batch of task requests (the "funcX batch") and
// returns one task ID per request, in order. Batch-level costs are charged
// once, per-task costs per element.
func (s *Service) SubmitBatch(reqs []TaskRequest) ([]string, error) {
	s.clk.Sleep(s.costs.AuthPerRequest + s.costs.SubmitPerBatch +
		time.Duration(len(reqs))*s.costs.SubmitPerTask)

	ids := make([]string, 0, len(reqs))
	type routed struct {
		ep    *Endpoint
		tasks []*task
		fns   []*function
	}
	byEP := make(map[string]*routed)

	s.mu.Lock()
	for _, req := range reqs {
		fn, ok := s.functions[req.FunctionID]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, req.FunctionID)
		}
		ep, ok := s.endpoints[req.EndpointID]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, req.EndpointID)
		}
		s.seq++
		id := fmt.Sprintf("task-%d", s.seq)
		t := &task{
			info: TaskInfo{
				ID:         id,
				FunctionID: req.FunctionID,
				EndpointID: req.EndpointID,
				Status:     TaskPending,
				Submitted:  s.clk.Now(),
			},
			payload: append([]byte(nil), req.Payload...),
			doneCh:  make(chan struct{}),
		}
		s.tasks[id] = t
		ids = append(ids, id)
		r := byEP[req.EndpointID]
		if r == nil {
			r = &routed{ep: ep}
			byEP[req.EndpointID] = r
		}
		r.tasks = append(r.tasks, t)
		r.fns = append(r.fns, fn)
	}
	s.mu.Unlock()

	s.TasksSubmitted.Add(int64(len(reqs)))
	s.obsSubmitted.Add(float64(len(reqs)))
	faults := s.faultHook()
	for _, r := range byEP {
		for i, t := range r.tasks {
			var err error
			if faults != nil {
				err = faults.DispatchFault(r.ep.ID)
			}
			if err == nil {
				err = r.ep.enqueue(t, r.fns[i], s.costs.DispatchPerTask)
			}
			if err != nil {
				t.finish(TaskLost, err.Error(), nil, time.Time{}) // fresh task: never already terminal
				s.TasksLost.Inc()
				s.obsLost.Inc()
			}
		}
	}
	return ids, nil
}

// Submit is SubmitBatch for a single request.
func (s *Service) Submit(req TaskRequest) (string, error) {
	ids, err := s.SubmitBatch([]TaskRequest{req})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// PollBatch returns snapshots for the given task IDs (the funcX batch
// polling API). Unknown IDs yield a zero TaskInfo with empty ID.
func (s *Service) PollBatch(ids []string) []TaskInfo {
	s.clk.Sleep(s.costs.AuthPerRequest)
	out := make([]TaskInfo, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		if t, ok := s.tasks[id]; ok {
			t.mu.Lock()
			out[i] = t.info
			t.mu.Unlock()
		}
	}
	return out
}

// Poll returns the snapshot of one task.
func (s *Service) Poll(id string) (TaskInfo, error) {
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return TaskInfo{}, fmt.Errorf("%w: %s", ErrUnknownTask, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.info, nil
}

// Wait blocks until the task reaches a terminal state.
func (s *Service) Wait(id string) (TaskInfo, error) {
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return TaskInfo{}, fmt.Errorf("%w: %s", ErrUnknownTask, id)
	}
	<-t.doneCh
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.info, nil
}

// panicRecovered counts one recovered handler panic.
func (s *Service) panicRecovered() {
	s.HandlerPanics.Inc()
	s.obsPanics.Inc()
}

// heartbeat records endpoint liveness.
func (s *Service) heartbeat(epID string) {
	s.mu.Lock()
	s.lastHeartbeat[epID] = s.clk.Now()
	s.mu.Unlock()
}

// endpointLost marks every non-terminal task on the endpoint as lost.
// Called when an endpoint stops (allocation end) or its heartbeat expires.
func (s *Service) endpointLost(epID string) {
	s.mu.Lock()
	var lost []*task
	for _, t := range s.tasks {
		t.mu.Lock()
		nonTerminal := !t.info.Status.Terminal() && t.info.EndpointID == epID
		t.mu.Unlock()
		if nonTerminal {
			lost = append(lost, t)
		}
	}
	s.mu.Unlock()
	for _, t := range lost {
		if _, ok := t.finish(TaskLost, ErrEndpointStopped.Error(), nil, time.Time{}); ok {
			s.TasksLost.Inc()
			s.obsLost.Inc()
		}
	}
}

// CheckHeartbeats scans endpoint liveness and marks tasks lost for any
// endpoint that has missed its heartbeat window. Returns the IDs of newly
// dead endpoints.
func (s *Service) CheckHeartbeats() []string {
	s.mu.Lock()
	now := s.clk.Now()
	var dead []string
	for id, last := range s.lastHeartbeat {
		if now.Sub(last) > s.HeartbeatTimeout {
			dead = append(dead, id)
			delete(s.lastHeartbeat, id)
		}
	}
	s.mu.Unlock()
	for _, id := range dead {
		s.endpointLost(id)
	}
	return dead
}

// taskFinished records completion bookkeeping and result-return latency.
// It is a no-op for tasks already terminal (lost or cancelled).
func (s *Service) taskFinished(t *task, result []byte, err error) {
	s.clk.Sleep(s.costs.ResultPerTask)
	status, errText := TaskSuccess, ""
	if err != nil {
		status, errText, result = TaskFailed, err.Error(), nil
	}
	info, ok := t.finish(status, errText, result, s.clk.Now())
	if !ok {
		return
	}
	if err != nil {
		s.obsFailed.Inc()
	} else {
		s.obsCompleted.Inc()
	}
	s.TasksCompleted.Inc()
	s.obsTaskLatency.ObserveDuration(info.Finished.Sub(info.Submitted))
}

// CancelTask force-fails a non-terminal task with ErrTaskCancelled,
// reporting whether it made the transition. This is the loser-kill half
// of hedged speculative execution: a duplicate still queued never runs
// (workers skip terminal tasks), and one already executing has its
// result discarded by the terminal-status fence in finish. The
// cancellation is delivered to completion sinks like any other terminal
// state, so the dispatcher's outstanding-task accounting drains
// normally.
func (s *Service) CancelTask(id string) bool {
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	_, ok = t.finish(TaskFailed, ErrTaskCancelled.Error(), nil, s.clk.Now())
	return ok
}

// Notify subscribes sink to the terminal events of the given tasks: each
// task's final TaskInfo is pushed to the sink exactly once, when it turns
// terminal. Tasks that are already terminal at subscription time are
// delivered immediately, so there is no subscribe/complete race — callers
// may Notify after SubmitBatch returns without missing completions.
// Unknown IDs are ignored. Unlike PollBatch, Notify models the fabric's
// internal event bus and charges no control-plane cost.
func (s *Service) Notify(ids []string, sink *CompletionSink) {
	for _, id := range ids {
		s.mu.Lock()
		t, ok := s.tasks[id]
		s.mu.Unlock()
		if !ok {
			continue
		}
		t.mu.Lock()
		if t.info.Status.Terminal() {
			info := t.info
			t.mu.Unlock()
			sink.push(info)
			continue
		}
		t.subs = append(t.subs, sink)
		t.mu.Unlock()
	}
}
