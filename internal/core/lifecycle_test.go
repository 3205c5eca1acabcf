package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
)

func TestDeadlineHeapOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rows := []struct {
		name string
		push []dueEntry
		want []string
	}{
		{name: "deadline order",
			push: []dueEntry{{at: at(3), taskID: "c"}, {at: at(1), taskID: "a"}, {at: at(2), taskID: "b"}},
			want: []string{"a", "b", "c"}},
		{name: "ties pop in insertion order",
			push: []dueEntry{{at: at(1), taskID: "x1"}, {at: at(1), taskID: "x2"}, {at: at(0), taskID: "first"},
				{at: at(1), taskID: "x3"}, {at: at(1), taskID: "x4"}, {at: at(1), taskID: "x5"}},
			want: []string{"first", "x1", "x2", "x3", "x4", "x5"}},
		{name: "kinds share one order",
			push: []dueEntry{{at: at(2), kind: dueHedge, taskID: "hedge"},
				{at: at(2), kind: dueStageRetry, taskID: "stage"}, {at: at(1), kind: dueStepRetry, taskID: "step"}},
			want: []string{"step", "hedge", "stage"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var d deadlines
			for _, e := range row.push {
				d.push(e)
			}
			var got []string
			for {
				if _, ok := d.peek(); !ok {
					break
				}
				got = append(got, d.pop().taskID)
			}
			if fmt.Sprint(got) != fmt.Sprint(row.want) {
				t.Fatalf("pop order %v, want %v", got, row.want)
			}
		})
	}
}

// lifecycleRig is one job's pump on a fake clock over two compute sites,
// alpha and beta, whose endpoints are registered but never started:
// tasks the shards submit stay pending on the fabric, so each test
// drives every step transition itself.
type lifecycleRig struct {
	clk *clock.Fake
	svc *Service
	p   *pump
}

func newLifecycleRig(t *testing.T, hedge bool) *lifecycleRig {
	t.Helper()
	clk := clock.NewFake(time.Unix(0, 0))
	fsvc := faas.NewService(clk, faas.Costs{})
	fsvc.HeartbeatTimeout = 40 * time.Millisecond
	families, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: transfer.NewFabric(clk),
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		FamilyQueue: families, PrefetchQueue: prefetch,
		PrefetchDone: prefetchDone, ResultQueue: results,
		Hedge: HedgePolicy{Enabled: hedge},
	})
	for _, name := range []string{"alpha", "beta"} {
		ep := faas.NewEndpoint("ep-"+name, 1, clk)
		fsvc.RegisterEndpoint(ep)
		svc.AddSite(&Site{Name: name, Store: store.NewMemFS(name, nil), TransferID: name, Compute: ep})
	}
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	jobCtx, cancel := context.WithCancel(context.Background())
	p := &pump{
		s:        svc,
		jobID:    svc.cfg.Registry.CreateJob("", []string{"alpha"}, clk.Now()),
		famQ:     queue.New("crawl-families/lifecycle", clk),
		states:   make(map[string]*famState),
		staging:  make(map[string]*famState),
		jobCtx:   jobCtx,
		events:   newShardEventSink(),
		shards:   make(map[string]*dispatcher),
		budget:   svc.retry.JobBudget,
		seenFams: make(map[string]bool),
		tasks:    make(map[string]taskRec),
	}
	t.Cleanup(func() {
		cancel()
		p.shardWG.Wait()
	})
	return &lifecycleRig{clk: clk, svc: svc, p: p}
}

// issued places a one-step family on alpha with its step issued and no
// attempt in flight, as after a dispatch whose task has just ended.
func (r *lifecycleRig) issued(famID string) (*famState, stepRef) {
	fam := family.Family{ID: famID, Store: "alpha", Groups: []family.Group{
		{ID: famID + "-g", Extractor: "keyword", Files: []string{"/d/" + famID + ".txt"}},
	}}
	site, _ := r.svc.Site("alpha")
	st := &famState{
		fam:     fam,
		plan:    scheduler.BuildPlan(&fam),
		site:    site,
		pathMap: make(map[string]string),
		results: make(map[string]map[string]interface{}),
	}
	r.p.states[famID] = st
	step, _ := st.plan.Next()
	return st, stepRef{famID: famID, step: step, rec: st.plan.Record(step)}
}

// staging places a family in staging after its first prefetch attempt.
func (r *lifecycleRig) staging(famID string) *famState {
	st := &famState{fam: family.Family{ID: famID}, prefetchBody: []byte(`{}`), stageAttempts: 1}
	r.p.staging[famID] = st
	return st
}

func TestArmDueSkipsFinishedHedge(t *testing.T) {
	rows := []struct {
		name       string
		below      dueKind // kind of the live entry under the dead hedge; 0xff for none
		wantReason string
	}{
		{name: "only a finished hedge", below: 0xff},
		{name: "live hedge below", below: dueHedge, wantReason: "hedge"},
		{name: "step retry below", below: dueStepRetry, wantReason: "retry"},
		{name: "staging retry below", below: dueStageRetry, wantReason: "retry"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newLifecycleRig(t, true)
			now := r.clk.Now()
			r.p.due.push(dueEntry{at: now.Add(time.Millisecond), kind: dueHedge, taskID: "task-finished"})
			if row.below != 0xff {
				r.p.tasks["task-live"] = taskRec{}
				r.p.due.push(dueEntry{at: now.Add(5 * time.Millisecond), kind: row.below, taskID: "task-live"})
			}
			ch, reason := r.p.armDue()
			if row.below == 0xff {
				if ch != nil || r.clk.PendingTimers() != 0 {
					t.Fatalf("armed a timer (%d pending) for a hedge whose task finished", r.clk.PendingTimers())
				}
				if len(r.p.due.h) != 0 {
					t.Fatalf("finished hedge left on the heap: %d entries", len(r.p.due.h))
				}
				return
			}
			if ch == nil || r.clk.PendingTimers() != 1 || reason != row.wantReason {
				t.Fatalf("armed %d timers with reason %q, want 1 with %q",
					r.clk.PendingTimers(), reason, row.wantReason)
			}
			if e, _ := r.p.due.peek(); len(r.p.due.h) != 1 || e.taskID != "task-live" {
				t.Fatalf("heap after arming: %+v", r.p.due.h)
			}
			r.clk.Advance(4 * time.Millisecond)
			select {
			case <-ch:
				t.Fatal("timer fired before the live entry's deadline")
			default:
			}
			r.clk.Advance(time.Millisecond)
			<-ch
		})
	}
}

// TestDueRetriesFireInSamePass schedules a staging retry and a step retry
// through their real failure paths, then lets both come due before one
// intake pass: both must fire in that pass.
func TestDueRetriesFireInSamePass(t *testing.T) {
	r := newLifecycleRig(t, false)
	stage := r.staging("fam-stage")
	st, ref := r.issued("fam-step")

	r.p.retryStagingOrFail(stage, "staging failed: injected")
	if !r.p.retryOrDeadLetter(st, ref, "lost", "injected") {
		t.Fatal("step dead-lettered on its first failure")
	}
	if len(r.p.due.h) != 2 || r.p.retried != 2 {
		t.Fatalf("heap holds %d entries after %d retries, want 2 and 2", len(r.p.due.h), r.p.retried)
	}
	if r.p.intakeDue() {
		t.Fatal("a retry fired before its backoff elapsed")
	}
	r.clk.Advance(time.Second)
	if !r.p.intakeDue() {
		t.Fatal("intake made no progress with two retries due")
	}
	if len(r.p.due.h) != 0 {
		t.Fatalf("%d entries left on the heap", len(r.p.due.h))
	}
	if stage.stageAttempts != 2 || r.svc.cfg.PrefetchQueue.Len() != 1 {
		t.Fatalf("staging retry did not fire: attempts=%d prefetch queue=%d",
			stage.stageAttempts, r.svc.cfg.PrefetchQueue.Len())
	}
	if ref.rec.Status != scheduler.StepIssued || ref.rec.Live != 1 || ref.rec.Attempts != 1 {
		t.Fatalf("step retry did not re-dispatch: %+v", *ref.rec)
	}
}

// TestStepNeverHedgedTwice fires two expired hedge deadlines for tasks
// carrying the same step: only the first dispatches a duplicate, and a
// hedge's own submission arms no deadline.
func TestStepNeverHedgedTwice(t *testing.T) {
	r := newLifecycleRig(t, true)
	_, ref := r.issued("fam-h")
	ref.rec.Live = 1 // the original attempt is running on alpha
	refs := []stepRef{ref}

	r.p.noteSubmitted(shardEvent{taskID: "t1", refs: refs, submitted: true})
	r.clk.Advance(r.svc.cfg.FaaS.HeartbeatTimeout) // a cold estimator falls back to it
	if !r.p.intakeDue() {
		t.Fatal("expired hedge deadline made no progress")
	}
	if r.p.stepsHedged != 1 || !ref.rec.Hedged || ref.rec.Live != 2 {
		t.Fatalf("first deadline: hedged=%d record=%+v, want one duplicate in flight", r.p.stepsHedged, *ref.rec)
	}

	r.p.noteSubmitted(shardEvent{taskID: "h1", refs: refs, submitted: true, hedge: true})
	if len(r.p.due.h) != 0 {
		t.Fatal("a hedge's own submission armed a hedge deadline")
	}
	r.p.noteSubmitted(shardEvent{taskID: "t2", refs: refs, submitted: true})
	r.clk.Advance(r.svc.cfg.FaaS.HeartbeatTimeout)
	r.p.intakeDue()
	if r.p.stepsHedged != 1 || ref.rec.Live != 2 {
		t.Fatalf("step hedged again: hedged=%d record=%+v", r.p.stepsHedged, *ref.rec)
	}
	if fmt.Sprint(ref.rec.Tasks) != "[t1 h1 t2]" {
		t.Fatalf("record tasks = %v", ref.rec.Tasks)
	}
}

// TestFenceHoldsAfterFamilyFinished completes a hedged step through its
// duplicate, lets the family finish, then delivers the original's late
// success: the fence reads the step's record (kept alive by the task's
// refs) and discards it as a duplicate.
func TestFenceHoldsAfterFamilyFinished(t *testing.T) {
	r := newLifecycleRig(t, true)
	_, ref := r.issued("fam-f")
	ref.rec.Live = 2 // original t1 and hedge h1 both running
	refs := []stepRef{ref}
	r.p.noteSubmitted(shardEvent{taskID: "t1", refs: refs, submitted: true})
	r.p.noteSubmitted(shardEvent{taskID: "h1", refs: refs, submitted: true, hedge: true})

	success := func(id string) faas.TaskInfo {
		body, err := encodeTaskResult(nil, &taskResult{Extractor: "keyword", Outcomes: []stepOutcome{
			{FamilyID: "fam-f", GroupID: ref.step.GroupID, OK: true},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return faas.TaskInfo{ID: id, Status: faas.TaskSuccess, Result: body}
	}
	r.p.handleTerminal("h1", success("h1"), refs)
	if _, live := r.p.states["fam-f"]; live || r.p.familiesDone != 1 {
		t.Fatalf("family not finished by the hedge win: done=%d", r.p.familiesDone)
	}
	if r.p.hedgeWins != 1 || ref.rec.Status != scheduler.StepDone {
		t.Fatalf("hedge win not recorded: wins=%d record=%+v", r.p.hedgeWins, *ref.rec)
	}
	r.p.handleTerminal("t1", success("t1"), refs)
	if r.p.duplicateSteps != 1 || r.p.stepsProcessed != 1 {
		t.Fatalf("late original: duplicates=%d processed=%d, want 1 and 1",
			r.p.duplicateSteps, r.p.stepsProcessed)
	}
	if len(r.p.tasks) != 0 || ref.rec.Live != 0 {
		t.Fatalf("task records %d, live %d after both tasks ended", len(r.p.tasks), ref.rec.Live)
	}
}

// TestDueWakeupReasons checks the reason await reports for a timer armed
// for each kind of deadline-heap entry.
func TestDueWakeupReasons(t *testing.T) {
	rows := []struct {
		name string
		kind dueKind
		want string
	}{
		{"step retry", dueStepRetry, "retry"},
		{"staging retry", dueStageRetry, "retry"},
		{"hedge", dueHedge, "hedge"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newLifecycleRig(t, true)
			r.p.tasks["task-live"] = taskRec{}
			r.p.due.push(dueEntry{at: r.clk.Now().Add(3 * time.Millisecond), kind: row.kind, taskID: "task-live"})
			got := make(chan string, 1)
			go func() {
				var stats crawler.Stats
				pending := 0
				reason, err := r.p.await(context.Background(), nil, nil, &stats, &pending)
				if err != nil {
					reason = err.Error()
				}
				got <- reason
			}()
			deadline := time.Now().Add(10 * time.Second)
			for r.clk.PendingTimers() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("await armed no timer")
				}
				runtime.Gosched()
			}
			r.clk.Advance(3 * time.Millisecond)
			if reason := <-got; reason != row.want {
				t.Fatalf("wakeup reason %q, want %q", reason, row.want)
			}
		})
	}
}

// TestDueWakeupsCounted runs real jobs whose only timed work is a retry
// backoff or a hedge deadline, and checks the pump counts those wakeups
// under their reasons in xtract_pump_wakeups_total.
func TestDueWakeupsCounted(t *testing.T) {
	t.Run("retry", func(t *testing.T) {
		ob := obs.New(clock.NewReal())
		h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 1}}, scheduler.LocalPolicy{}, func(cfg *Config) {
			cfg.Obs = ob
			cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}
		})
		defer h.close()
		_ = h.sites["theta"].Write("/d/a.txt", []byte("words"))
		h.started[0].Stop() // every dispatch is lost and retried after a backoff
		if _, err := h.svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: "theta", Roots: []string{"/d"},
			Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary()),
		}}); err != nil {
			t.Fatal(err)
		}
		if n := h.svc.wakeupCounter("retry").Value(); n == 0 {
			t.Fatal("no retry wakeups counted")
		}
	})
	t.Run("hedge", func(t *testing.T) {
		ob := obs.New(clock.NewReal())
		ext := &tailBlockExtractor{release: make(chan struct{})}
		h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 2}, {name: "beta", workers: 2}},
			scheduler.LocalPolicy{}, func(cfg *Config) {
				cfg.Obs = ob
				cfg.Library = extractors.NewLibrary(ext)
				cfg.Hedge = HedgePolicy{Enabled: true, Quantile: 0.9, Multiplier: 2, MinSamples: 5}
			})
		defer h.close()
		defer close(ext.release)
		_ = h.sites["alpha"].Write("/d/straggler.dat", []byte{1})
		for i := 0; i < 8; i++ {
			h.svc.estimator.Observe(ext.Name(), 2*time.Millisecond)
		}
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: "alpha", Roots: []string{"/d"},
			Grouper: crawler.SingleFileGrouper(extractors.NewLibrary(ext)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.StepsHedged != 1 || stats.HedgeWins != 1 {
			t.Fatalf("stats = %+v, want the straggler hedged and won", stats)
		}
		if n := h.svc.wakeupCounter("hedge").Value(); n == 0 {
			t.Fatal("no hedge wakeups counted")
		}
	})
}
