package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"xtract/internal/faultinject"
)

// drainToken consumes the queue's pending wakeup token if one is set,
// reporting whether there was one.
func drainToken(q *Queue) bool {
	select {
	case <-q.Ready():
		return true
	default:
		return false
	}
}

func TestReadySignaledOnSend(t *testing.T) {
	q, _ := newTestQueue()
	if drainToken(q) {
		t.Fatal("fresh queue already signaled")
	}
	q.Send([]byte("a"))
	if !drainToken(q) {
		t.Fatal("Send did not signal Ready")
	}
	if drainToken(q) {
		t.Fatal("one Send left more than one token")
	}
}

func TestReadyCoalescesTokens(t *testing.T) {
	q, _ := newTestQueue()
	for i := 0; i < 100; i++ {
		q.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	q.SendBatch([][]byte{[]byte("x"), []byte("y")})
	if !drainToken(q) {
		t.Fatal("sends did not signal Ready")
	}
	if drainToken(q) {
		t.Fatal("tokens not coalesced: more than one pending")
	}
	// The token is advisory, not a count: all messages remain receivable.
	if got := len(q.Receive(200, time.Minute)); got != 102 {
		t.Fatalf("received %d messages, want 102", got)
	}
}

func TestReadySignaledOnNack(t *testing.T) {
	q, _ := newTestQueue()
	q.Send([]byte("a"))
	msgs := q.Receive(1, time.Minute)
	if len(msgs) != 1 {
		t.Fatal("expected one message")
	}
	drainToken(q) // consume the Send token
	if err := q.Nack(msgs[0].Receipt); err != nil {
		t.Fatal(err)
	}
	if !drainToken(q) {
		t.Fatal("Nack did not signal Ready")
	}
}

func TestReadySignaledOnVisibilityReclaim(t *testing.T) {
	q, clk := newTestQueue()
	q.Send([]byte("a"))
	if len(q.Receive(1, 30*time.Second)) != 1 {
		t.Fatal("expected one message")
	}
	drainToken(q)
	clk.Advance(31 * time.Second)
	// Reclaim is lazy: any read operation triggers it.
	if q.Len() != 1 {
		t.Fatal("message not reclaimed after visibility timeout")
	}
	if !drainToken(q) {
		t.Fatal("visibility-timeout reclaim did not signal Ready")
	}
}

// TestReadyResignaledOnFaultSuppressedReceive is the regression test for
// the fault-hook lost wakeup: a consumer spends its coalesced Ready token
// on a poll the fault hook suppresses. The messages stay visible, so the
// queue must hand back a fresh token — otherwise a token-driven consumer
// parks on Ready() until some unrelated Send, stalling the pump.
func TestReadyResignaledOnFaultSuppressedReceive(t *testing.T) {
	q, _ := newTestQueue()
	q.SetFaults(faultinject.New(faultinject.Config{
		Seed:      1,
		QueueDrop: faultinject.Rule{Prob: 1, Max: 1},
	}))
	q.Send([]byte("a"))
	if !drainToken(q) {
		t.Fatal("Send did not signal Ready")
	}
	// The token is spent; this poll is suppressed by the fault hook.
	if msgs := q.Receive(10, time.Minute); len(msgs) != 0 {
		t.Fatalf("expected suppressed delivery, got %d messages", len(msgs))
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d, message was lost", q.Len())
	}
	// The still-visible message must be re-announced.
	if !drainToken(q) {
		t.Fatal("fault-suppressed Receive did not re-signal Ready: lost wakeup")
	}
	// And the fault budget is spent, so the re-poll delivers.
	if msgs := q.Receive(10, time.Minute); len(msgs) != 1 {
		t.Fatalf("re-poll delivered %d messages, want 1", len(msgs))
	}
}

// TestExpiryTimerSignalsReadyAtDeadline is the regression test for the
// visibility-expiry liveness hole: reclaim used to run only inside read
// operations, so an in-flight message whose deadline lapsed while the
// sole consumer was parked on Ready() was never redelivered. The armed
// clock timer must reclaim and signal Ready at the deadline with no
// reader poking the queue.
func TestExpiryTimerSignalsReadyAtDeadline(t *testing.T) {
	q, clk := newTestQueue()
	q.Send([]byte("a"))
	msgs := q.Receive(1, 30*time.Second)
	if len(msgs) != 1 {
		t.Fatal("expected one message")
	}
	drainToken(q) // consume the Send token; consumer is now parked

	// Advance past the deadline WITHOUT calling any queue read op. The
	// timer goroutine runs asynchronously after Advance, so wait on the
	// Ready channel with a real-time timeout.
	clk.Advance(31 * time.Second)
	select {
	case <-q.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("no Ready token after visibility deadline: expiry timer missing")
	}
	redelivered := q.Receive(1, 30*time.Second)
	if len(redelivered) != 1 {
		t.Fatalf("expected redelivery, got %d messages", len(redelivered))
	}
	if redelivered[0].Deliveries != 2 {
		t.Fatalf("Deliveries = %d, want 2", redelivered[0].Deliveries)
	}
	if err := q.Delete(redelivered[0].Receipt); err != nil {
		t.Fatal(err)
	}
}

// TestExpiryTimerRearmsForLaterDeadline: after the earliest in-flight
// message is acknowledged, the timer must still fire for the remaining
// (later) deadline.
func TestExpiryTimerRearmsForLaterDeadline(t *testing.T) {
	q, clk := newTestQueue()
	q.Send([]byte("a"))
	q.Send([]byte("b"))
	first := q.Receive(1, 10*time.Second)
	second := q.Receive(1, 40*time.Second)
	if len(first) != 1 || len(second) != 1 {
		t.Fatal("expected two single-message receives")
	}
	if err := q.Delete(first[0].Receipt); err != nil {
		t.Fatal(err)
	}
	drainToken(q)

	// Fire the stale 10s timer: nothing expired, no token.
	clk.Advance(11 * time.Second)
	select {
	case <-q.Ready():
		t.Fatal("token for a deadline that was acknowledged")
	case <-time.After(100 * time.Millisecond):
	}

	// The re-armed timer must cover the 40s message.
	clk.Advance(30 * time.Second)
	select {
	case <-q.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("timer not re-armed for the later deadline")
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("visible = %d, want 1 reclaimed message", got)
	}
}

func TestDeleteBatch(t *testing.T) {
	q, _ := newTestQueue()
	for i := 0; i < 5; i++ {
		q.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	msgs := q.Receive(5, time.Minute)
	if len(msgs) != 5 {
		t.Fatalf("received %d, want 5", len(msgs))
	}
	receipts := make([]string, 0, len(msgs))
	for _, m := range msgs {
		receipts = append(receipts, m.Receipt)
	}
	receipts = append(receipts, "r-bogus-999") // unknown receipts are skipped
	if n := q.DeleteBatch(receipts); n != 5 {
		t.Fatalf("DeleteBatch acknowledged %d, want 5", n)
	}
	if q.InFlight() != 0 || q.Len() != 0 {
		t.Fatalf("queue not empty after batch delete: visible=%d inflight=%d", q.Len(), q.InFlight())
	}
	_, deleted := q.Stats()
	if deleted != 5 {
		t.Fatalf("deleted stat = %d, want 5", deleted)
	}
	if n := q.DeleteBatch(receipts); n != 0 {
		t.Fatalf("double DeleteBatch acknowledged %d, want 0", n)
	}
}

// TestNoLostWakeups drives a producer and a token-driven consumer
// concurrently: the consumer only receives after a Ready token (or a
// re-check after absorbing one) and must still drain every message. A
// lost wakeup — a message enqueued without a token becoming available —
// would hang the consumer and fail the test via timeout.
func TestNoLostWakeups(t *testing.T) {
	q, _ := newTestQueue()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if i%7 == 3 {
				// Exercise the Nack path concurrently: redeliveries are
				// fine (at-least-once), lost messages are not.
				q.Send([]byte("nackme"))
				if msgs := q.Receive(1, time.Minute); len(msgs) == 1 {
					_ = q.Nack(msgs[0].Receipt)
				}
			} else {
				q.Send([]byte("m"))
			}
		}
	}()

	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		msgs := q.Receive(64, time.Minute)
		if len(msgs) == 0 {
			select {
			case <-q.Ready():
			case <-deadline:
				t.Fatalf("consumer starved at %d/%d messages: lost wakeup", got, n)
			}
			continue
		}
		for _, m := range msgs {
			_ = q.Delete(m.Receipt)
			got++
		}
	}
	wg.Wait()
}

// TestIdleQueueNotPinnedByExpiryTimer: once nothing is in flight, the
// armed expiry goroutine must no longer reach the queue (a finished
// job's private family queue would otherwise stay live, buffers and all,
// until a visibility deadline minutes away), and the timer must still
// cover messages received afterwards.
func TestIdleQueueNotPinnedByExpiryTimer(t *testing.T) {
	q, clk := newTestQueue()
	q.Send([]byte("a"))
	a := q.Receive(1, 30*time.Second)
	w := q.waiter
	if len(a) != 1 || w == nil {
		t.Fatal("expected one message and an armed waiter")
	}
	if err := q.Delete(a[0].Receipt); err != nil {
		t.Fatal(err)
	}
	if w.q != nil {
		t.Fatal("idle queue still reachable from its expiry waiter")
	}

	// A later deadline reattaches the pending waiter instead of arming a
	// second timer; when it fires it re-arms for the later deadline.
	q.Send([]byte("b"))
	if len(q.Receive(1, 60*time.Second)) != 1 {
		t.Fatal("expected one message")
	}
	if q.waiter != w || w.q != q {
		t.Fatal("pending waiter not reattached")
	}
	drainToken(q)
	clk.Advance(31 * time.Second)
	select {
	case <-q.Ready():
		t.Fatal("token before the in-flight deadline")
	case <-time.After(100 * time.Millisecond):
	}
	clk.Advance(30 * time.Second)
	select {
	case <-q.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("no Ready token at the reattached deadline")
	}
	b := q.Receive(1, 10*time.Second)
	if len(b) != 1 || b[0].Deliveries != 2 {
		t.Fatalf("expected redelivery of b, got %+v", b)
	}

	// A waiter that fires while detached returns; the next receive arms
	// a fresh one.
	if err := q.Delete(b[0].Receipt); err != nil {
		t.Fatal(err)
	}
	clk.Advance(11 * time.Second)
	q.Send([]byte("c"))
	if len(q.Receive(1, 10*time.Second)) != 1 {
		t.Fatal("expected one message")
	}
	drainToken(q)
	clk.Advance(11 * time.Second)
	select {
	case <-q.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("no Ready token after the queue went idle and was reused")
	}
}
