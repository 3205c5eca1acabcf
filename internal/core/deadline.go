package core

import (
	"container/heap"
	"time"
)

// dueKind says which timed transition a deadline entry schedules.
type dueKind uint8

const (
	// dueStepRetry: a step's retry backoff elapsed; re-dispatch it.
	dueStepRetry dueKind = iota
	// dueStageRetry: a family's staging backoff elapsed; re-send its
	// prefetch task.
	dueStageRetry
	// dueHedge: a task outlived its hedge deadline; duplicate its
	// unfinished steps.
	dueHedge
)

// reason is the pump wakeup label for a timer armed for this kind.
func (k dueKind) reason() string {
	if k == dueHedge {
		return "hedge"
	}
	return "retry"
}

// dueEntry is one timed transition. ref names the step of a step retry,
// and only the family (ref.famID) of a staging retry; taskID names the
// task of a hedge.
type dueEntry struct {
	at     time.Time
	seq    uint64
	kind   dueKind
	ref    stepRef
	taskID string
}

// deadlines is the pump's one timer queue: a min-heap on the injected
// clock's time, with equal deadlines popping in insertion order.
type deadlines struct {
	h   dueHeap
	seq uint64
}

func (d *deadlines) push(e dueEntry) {
	d.seq++
	e.seq = d.seq
	heap.Push(&d.h, e)
}

// peek returns the earliest entry without removing it.
func (d *deadlines) peek() (dueEntry, bool) {
	if len(d.h) == 0 {
		return dueEntry{}, false
	}
	return d.h[0], true
}

func (d *deadlines) pop() dueEntry { return heap.Pop(&d.h).(dueEntry) }

type dueHeap []dueEntry

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h dueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(dueEntry)) }
func (h *dueHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = dueEntry{} // drop the ref so the array pins no plan
	*h = old[:n-1]
	return e
}
