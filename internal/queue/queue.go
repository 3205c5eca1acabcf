// Package queue implements an in-process message queue with the SQS
// semantics Xtract depends on: at-least-once delivery, visibility
// timeouts, receipt-based deletion, and approximate depth counters. The
// paper's crawler→service and service→validator hops both ride on SQS;
// here they ride on this package.
package queue

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
)

// ErrUnknownReceipt is returned by Delete and Nack for receipts that do
// not correspond to an in-flight message.
var ErrUnknownReceipt = errors.New("queue: unknown receipt handle")

// FaultHook injects delivery failures for chaos testing.
// internal/faultinject satisfies it structurally; a nil hook is a no-op.
type FaultHook interface {
	// ReceiveFault makes one Receive call deliver nothing. Messages stay
	// visible, so this models a dropped/empty SQS long poll, not loss.
	ReceiveFault(queue string) bool
}

// Message is a received queue message. Receipt must be passed to Delete
// to acknowledge it; if not deleted before the visibility timeout elapses
// the message is redelivered.
type Message struct {
	ID         string
	Body       []byte
	Receipt    string
	Deliveries int // how many times this message has been received
}

type entry struct {
	id         string
	body       []byte
	deliveries int
	enqueuedAt time.Time // first Send time; survives redelivery
	// in-flight state
	inflight  bool
	receipt   string
	expiresAt time.Time
}

// Queue is a FIFO-ordered at-least-once queue. Safe for concurrent use.
type Queue struct {
	name string
	clk  clock.Clock

	mu       sync.Mutex
	visible  []*entry          // FIFO order
	inflight map[string]*entry // by receipt
	seq      int64
	sent     int64
	deleted  int64
	faults   FaultHook
	// ready carries coalesced wakeup tokens: one token is set (never
	// more) whenever messages become visible. See Ready.
	ready chan struct{}

	// Expiry-timer state: one armed goroutine waits on clk.After for the
	// earliest in-flight deadline so reclaim does not depend on a
	// consumer happening to call a read op. It reaches the queue only
	// through waiter, which is detached whenever nothing is in flight: a
	// parked timer must not pin an idle queue (a finished job's private
	// family queue and its buffers) until a deadline minutes away.
	waiter        *expiryWaiter
	timerDeadline time.Time // waiter's deadline; zero when none is armed
}

// expiryWaiter links an armed expiry goroutine to its queue. q is nil
// while the queue has nothing in flight (or the waiter was superseded);
// fired marks a waiter whose goroutine has woken, which a re-arm must
// replace rather than reattach.
type expiryWaiter struct {
	mu    sync.Mutex
	q     *Queue
	fired bool
}

// attach points the waiter at q (nil detaches) and reports whether its
// goroutine is still waiting.
func (w *expiryWaiter) attach(q *Queue) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.fired {
		w.q = q
	}
	return !w.fired
}

// fire marks the waiter's goroutine awake and returns the attached
// queue, if any.
func (w *expiryWaiter) fire() *Queue {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fired = true
	return w.q
}

// SetFaults installs (or clears, with nil) the queue's fault hook.
func (q *Queue) SetFaults(h FaultHook) {
	q.mu.Lock()
	q.faults = h
	q.mu.Unlock()
}

// New returns an empty queue named name using clk for visibility expiry.
func New(name string, clk clock.Clock) *Queue {
	return &Queue{
		name:     name,
		clk:      clk,
		inflight: make(map[string]*entry),
		ready:    make(chan struct{}, 1),
	}
}

// Ready returns the queue's wakeup channel: a token arrives whenever
// messages become visible — Send/SendBatch, Nack, and visibility-timeout
// reclaim all signal it. Tokens are coalesced (the channel holds at most
// one), so a consumer must treat a token as "look now", drain with
// Receive until empty, and then block on Ready again; any message that
// arrives in between re-signals the channel. Consumers must never infer
// queue depth from token counts.
func (q *Queue) Ready() <-chan struct{} { return q.ready }

// notifyLocked sets the coalesced wakeup token. Callers hold q.mu; the
// send is non-blocking so signaling never stalls queue operations.
func (q *Queue) notifyLocked() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Send enqueues one message and returns its ID.
func (q *Queue) Send(body []byte) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sendLocked(body)
}

func (q *Queue) sendLocked(body []byte) string {
	q.seq++
	q.sent++
	e := &entry{
		id:         q.name + "-" + strconv.FormatInt(q.seq, 10),
		body:       append([]byte(nil), body...),
		enqueuedAt: q.clk.Now(),
	}
	q.visible = append(q.visible, e)
	q.notifyLocked()
	return e.id
}

// SendBatch enqueues several messages atomically and returns their IDs.
func (q *Queue) SendBatch(bodies [][]byte) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		ids[i] = q.sendLocked(b)
	}
	return ids
}

// armExpiryLocked ensures a timer goroutine is waiting for the earliest
// in-flight visibility deadline. Without it, reclaim would run only
// inside read operations, and an expired message could sit undelivered
// while the sole consumer is parked on Ready() — a liveness hole, since
// the reclaim that would wake the consumer itself waits on the consumer.
// The goroutine signals Ready via reclaimLocked when the deadline lapses
// and re-arms for the next one. A timer armed for a deadline that was
// Deleted or Nacked away simply fires, reclaims nothing, and re-arms; a
// timer that fires while its waiter is detached returns without touching
// the queue. A new earlier deadline (a Receive with a shorter
// visibility) arms a fresh waiter and detaches the old one.
func (q *Queue) armExpiryLocked() {
	if len(q.inflight) == 0 {
		return
	}
	var earliest time.Time
	for _, e := range q.inflight {
		if earliest.IsZero() || e.expiresAt.Before(earliest) {
			earliest = e.expiresAt
		}
	}
	if q.waiter != nil {
		if !q.timerDeadline.After(earliest) && q.waiter.attach(q) {
			return // already armed at (or before) the earliest deadline
		}
		q.waiter.attach(nil)
	}
	w := &expiryWaiter{q: q}
	q.waiter = w
	q.timerDeadline = earliest
	ch := q.clk.After(earliest.Sub(q.clk.Now()))
	go func() { // captures only ch and w, never the receiver
		<-ch
		q := w.fire()
		if q == nil {
			return // detached: idle or superseded
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.waiter != w {
			return // superseded by a later arm
		}
		q.waiter = nil
		q.timerDeadline = time.Time{}
		q.reclaimLocked() // signals Ready if anything expired
		q.armExpiryLocked()
	}()
}

// detachIdleLocked releases the armed waiter's hold on the queue once
// nothing is in flight; the next Receive reattaches or re-arms it.
func (q *Queue) detachIdleLocked() {
	if len(q.inflight) == 0 && q.waiter != nil {
		q.waiter.attach(nil)
	}
}

// reclaimLocked moves expired in-flight messages back to the visible
// queue. Called lazily from every read operation and eagerly from the
// expiry timer.
func (q *Queue) reclaimLocked() {
	if len(q.inflight) == 0 {
		return
	}
	now := q.clk.Now()
	reclaimed := false
	for receipt, e := range q.inflight {
		if !e.expiresAt.After(now) {
			delete(q.inflight, receipt)
			e.inflight = false
			e.receipt = ""
			q.visible = append(q.visible, e)
			reclaimed = true
		}
	}
	if reclaimed {
		q.notifyLocked()
	}
}

// Receive dequeues up to max messages, making them invisible to other
// consumers for the visibility duration. Returns nil when the queue has
// no visible messages.
func (q *Queue) Receive(max int, visibility time.Duration) []Message {
	if max <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	n := max
	if n > len(q.visible) {
		n = len(q.visible)
	}
	if n == 0 {
		return nil
	}
	// Consult the fault hook only for polls that would deliver, so every
	// fired fault suppresses a real delivery (messages stay visible).
	// Re-signal the wakeup token before returning empty: the consumer
	// spent its coalesced Ready() token on this poll, and without a fresh
	// token the still-visible messages would sit until an unrelated Send.
	if q.faults != nil && q.faults.ReceiveFault(q.name) {
		q.notifyLocked()
		return nil
	}
	now := q.clk.Now()
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		e := q.visible[i]
		q.visible[i] = nil
		e.deliveries++
		e.inflight = true
		q.seq++
		e.receipt = "r-" + q.name + "-" + strconv.FormatInt(q.seq, 10)
		e.expiresAt = now.Add(visibility)
		q.inflight[e.receipt] = e
		out = append(out, Message{ID: e.id, Body: e.body, Receipt: e.receipt, Deliveries: e.deliveries})
	}
	q.visible = q.visible[n:]
	q.armExpiryLocked()
	return out
}

// Delete acknowledges an in-flight message so it is never redelivered.
func (q *Queue) Delete(receipt string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	if _, ok := q.inflight[receipt]; !ok {
		return ErrUnknownReceipt
	}
	delete(q.inflight, receipt)
	q.deleted++
	q.detachIdleLocked()
	return nil
}

// DeleteBatch acknowledges several in-flight messages under one lock
// acquisition and reports how many were known. Unknown receipts are
// skipped (the at-least-once contract makes a double-delete harmless),
// so callers batching acks after a partial failure need no bookkeeping.
func (q *Queue) DeleteBatch(receipts []string) int {
	if len(receipts) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	n := 0
	for _, r := range receipts {
		if _, ok := q.inflight[r]; ok {
			delete(q.inflight, r)
			q.deleted++
			n++
		}
	}
	q.detachIdleLocked()
	return n
}

// Nack returns an in-flight message to the visible queue immediately.
func (q *Queue) Nack(receipt string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.inflight[receipt]
	if !ok {
		return ErrUnknownReceipt
	}
	delete(q.inflight, receipt)
	e.inflight = false
	e.receipt = ""
	q.visible = append(q.visible, e)
	q.notifyLocked()
	q.detachIdleLocked()
	return nil
}

// ReclaimAll forces every in-flight message back to the visible queue
// immediately, regardless of its visibility deadline, and reports how
// many were returned. This is the restart-redelivery path: after a crash
// the consumers that held the receipts are gone, so recovery reclaims
// their unacknowledged work instead of waiting out the timeouts.
func (q *Queue) ReclaimAll() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.inflight)
	for receipt, e := range q.inflight {
		delete(q.inflight, receipt)
		e.inflight = false
		e.receipt = ""
		q.visible = append(q.visible, e)
	}
	if n > 0 {
		q.notifyLocked()
	}
	q.detachIdleLocked()
	return n
}

// Len reports the number of currently visible messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	return len(q.visible)
}

// InFlight reports the number of received-but-unacknowledged messages.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	return len(q.inflight)
}

// OldestAge reports the approximate age of the oldest visible message:
// the time since the head of the FIFO was first sent (redelivered
// messages keep their original send time). Zero when nothing is visible.
// It is approximate in the SQS sense — reclaimed messages re-append, so
// an older message may briefly sit behind a newer head.
func (q *Queue) OldestAge() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimLocked()
	if len(q.visible) == 0 {
		return 0
	}
	age := q.clk.Now().Sub(q.visible[0].enqueuedAt)
	if age < 0 {
		return 0
	}
	return age
}

// Instrument registers live depth, in-flight, and oldest-age gauges for
// this queue, labeled by queue name, on the observability registry.
// Values are sampled at scrape time.
func (q *Queue) Instrument(reg *obs.Registry) {
	labels := map[string]string{"queue": q.name}
	reg.GaugeFunc("xtract_queue_depth", "Visible messages on the queue.",
		labels, func() float64 { return float64(q.Len()) })
	reg.GaugeFunc("xtract_queue_in_flight", "Received-but-unacknowledged messages on the queue.",
		labels, func() float64 { return float64(q.InFlight()) })
	reg.GaugeFunc("xtract_queue_oldest_age_seconds", "Approximate age of the oldest visible message.",
		labels, func() float64 { return q.OldestAge().Seconds() })
}

// Stats reports cumulative sent and deleted counts.
func (q *Queue) Stats() (sent, deleted int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sent, q.deleted
}

// Drain receives and acknowledges every visible message, returning the
// bodies. Intended for tests and for shutdown paths.
func (q *Queue) Drain() [][]byte {
	var out [][]byte
	for {
		msgs := q.Receive(64, time.Hour)
		if len(msgs) == 0 {
			return out
		}
		for _, m := range msgs {
			out = append(out, m.Body)
			_ = q.Delete(m.Receipt)
		}
	}
}
