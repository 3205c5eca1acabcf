package faas

import (
	"context"
	"errors"
	"testing"
	"time"

	"xtract/internal/clock"
)

// silentHeartbeats drops every heartbeat, so only CheckHeartbeats can
// declare the endpoint dead.
type silentHeartbeats struct{}

func (silentHeartbeats) DispatchFault(string) error { return nil }
func (silentHeartbeats) HeartbeatDrop(string) bool  { return true }
func (silentHeartbeats) EndpointCrash(string) bool  { return false }

// subscribeThenFailDispatch subscribes sink to every task the service
// holds, then fails the task's delivery: the only way to subscribe
// before a dispatch fault, which turns the task LOST inside SubmitBatch.
type subscribeThenFailDispatch struct {
	svc  *Service
	sink *CompletionSink
}

func (h subscribeThenFailDispatch) DispatchFault(string) error {
	h.svc.mu.Lock()
	var ids []string
	for id := range h.svc.tasks {
		ids = append(ids, id)
	}
	h.svc.mu.Unlock()
	h.svc.Notify(ids, h.sink)
	return errors.New("injected dispatch fault")
}
func (subscribeThenFailDispatch) HeartbeatDrop(string) bool { return false }
func (subscribeThenFailDispatch) EndpointCrash(string) bool { return false }

// TestTerminalPathsDeliverOnce drives one task down each terminal path of
// the fabric. On every path a sink subscribed before the transition and
// a sink subscribed after it each receive the final snapshot exactly
// once, and a handler returning after the task was already ended
// delivers nothing more.
func TestTerminalPathsDeliverOnce(t *testing.T) {
	const hbTimeout = 30 * time.Millisecond
	rows := []struct {
		name    string
		want    TaskStatus
		wantErr string
		// result is what the handler does once released.
		result func() ([]byte, error)
		// hook, when set, is installed before submission.
		hook func(svc *Service, before *CompletionSink) FaultHook
		// lostAtSubmit marks a task that never reaches a worker; its hook
		// subscribes the before sink.
		lostAtSubmit bool
		// end drives the running task terminal (nil: releasing the
		// handler does).
		end func(t *testing.T, svc *Service, ep *Endpoint, clk *clock.Fake, id string)
	}{
		{name: "success", want: TaskSuccess,
			result: func() ([]byte, error) { return []byte("ok"), nil }},
		{name: "handler error", want: TaskFailed, wantErr: "boom",
			result: func() ([]byte, error) { return nil, errors.New("boom") }},
		{name: "handler panic", want: TaskFailed, wantErr: "faas: handler panic on endpoint ep1: kaboom",
			result: func() ([]byte, error) { panic("kaboom") }},
		{name: "CancelTask", want: TaskFailed, wantErr: ErrTaskCancelled.Error(),
			end: func(t *testing.T, svc *Service, _ *Endpoint, _ *clock.Fake, id string) {
				if !svc.CancelTask(id) {
					t.Error("CancelTask refused a running task")
				}
			}},
		{name: "Endpoint.Stop", want: TaskLost, wantErr: ErrEndpointStopped.Error(),
			end: func(_ *testing.T, _ *Service, ep *Endpoint, _ *clock.Fake, _ string) { ep.Stop() }},
		{name: "heartbeat loss", want: TaskLost, wantErr: ErrEndpointStopped.Error(),
			hook: func(*Service, *CompletionSink) FaultHook { return silentHeartbeats{} },
			end: func(t *testing.T, svc *Service, _ *Endpoint, clk *clock.Fake, _ string) {
				clk.Advance(2 * hbTimeout)
				if dead := svc.CheckHeartbeats(); len(dead) != 1 {
					t.Errorf("dead endpoints = %v, want [ep1]", dead)
				}
			}},
		{name: "dispatch fault", want: TaskLost, wantErr: "injected dispatch fault", lostAtSubmit: true,
			hook: func(svc *Service, before *CompletionSink) FaultHook {
				return subscribeThenFailDispatch{svc: svc, sink: before}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clk := clock.NewFake(time.Unix(0, 0))
			svc := NewService(clk, Costs{})
			svc.HeartbeatTimeout = hbTimeout
			ep := NewEndpoint("ep1", 1, clk)
			svc.RegisterEndpoint(ep)
			before, after := NewCompletionSink(), NewCompletionSink()
			if row.hook != nil {
				svc.SetFaults(row.hook(svc, before))
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := ep.Start(ctx); err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			running := make(chan struct{}, 1)
			fid, err := svc.RegisterFunction("parked", func(context.Context, []byte) ([]byte, error) {
				running <- struct{}{}
				<-release
				if row.result == nil {
					return []byte("late"), nil
				}
				return row.result()
			}, "")
			if err != nil {
				t.Fatal(err)
			}
			id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1"})
			if err != nil {
				t.Fatal(err)
			}
			if !row.lostAtSubmit {
				svc.Notify([]string{id}, before)
				<-running // the handler holds the task non-terminal
			}
			if row.end != nil {
				row.end(t, svc, ep, clk, id)
			}
			close(release)
			got := collect(t, before, 1)
			svc.Notify([]string{id}, after)
			late := collect(t, after, 1)
			if len(got) != 1 || len(late) != 1 {
				t.Fatalf("deliveries: %d before, %d after, want 1 each", len(got), len(late))
			}

			// Stop the workers: each returns only after finishing the
			// execution in hand, including any late taskFinished, so a
			// second delivery would be pending by now.
			cancel()
			ep.wg.Wait()
			if n := before.Pending(); n != 0 {
				t.Fatalf("sink subscribed before the transition got %d extra deliveries", n)
			}
			if n := after.Pending(); n != 0 {
				t.Fatalf("sink subscribed after the transition got %d extra deliveries", n)
			}
			for _, info := range []TaskInfo{got[0], late[0]} {
				if info.ID != id || info.Status != row.want || info.Err != row.wantErr {
					t.Fatalf("delivered %s %s err=%q, want %s %s err=%q",
						info.ID, info.Status, info.Err, id, row.want, row.wantErr)
				}
			}
			if row.want == TaskSuccess && string(got[0].Result) != "ok" {
				t.Fatalf("result = %q", got[0].Result)
			}
			if final, _ := svc.Poll(id); final.Status != row.want || final.Err != row.wantErr {
				t.Fatalf("final snapshot %s err=%q changed after delivery", final.Status, final.Err)
			}
		})
	}
}
