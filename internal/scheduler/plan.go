// Package scheduler implements Xtract's extraction planning and task
// placement: the per-family extraction plan (which extractors to apply to
// which groups, updated dynamically as metadata arrives), and the
// offloading policies — local-only, RAND, and offload-n-bytes (ONB) —
// that decide where each family executes (paper §4.3.3, Table 2).
package scheduler

import (
	"fmt"

	"xtract/internal/extractors"
	"xtract/internal/family"
)

// Step is one pending extractor application within a plan.
type Step struct {
	GroupID   string `json:"group_id"`
	Extractor string `json:"extractor"`
}

// StepStatus is a step's position in its lifecycle:
// pending → issued → done | failed. A lost or failed attempt returns an
// issued step to pending (Reset); done and failed are final.
type StepStatus uint8

// Step lifecycle states.
const (
	StepPending StepStatus = iota
	StepIssued
	StepDone
	StepFailed
)

// StepRecord is everything the orchestrator tracks about one step. The
// plan owns the status; the dispatch-side fields are maintained by the
// plan's single owner (the job's pump) and are never read concurrently.
type StepRecord struct {
	Status StepStatus
	// Attempts counts executions that ended in failure or loss.
	Attempts int
	// Live counts executions in flight: 1 normally, 2 while hedged.
	Live int
	// Hedged marks a step that already got its one speculative duplicate.
	Hedged bool
	// Tasks are the IDs of the fabric tasks carrying the step, for
	// cancelling the losers once one attempt completes.
	Tasks []string
}

// Plan is the dynamic extraction plan for one family: the next() function
// of the paper's formalization, realized as a work queue of steps that
// extractor results may extend, plus one record per step. A plan belongs
// to one goroutine and is not safe for concurrent use.
type Plan struct {
	FamilyID string

	steps   map[Step]*StepRecord
	pending []Step
	issued  int
	settled int // done or failed
}

// BuildPlan derives the initial plan from each group's assigned extractor.
func BuildPlan(fam *family.Family) *Plan {
	p := &Plan{
		FamilyID: fam.ID,
		steps:    make(map[Step]*StepRecord, len(fam.Groups)),
	}
	for _, g := range fam.Groups {
		if g.Extractor != "" {
			p.Add(g.ID, g.Extractor)
		}
	}
	return p
}

// Add appends a step unless it is already pending, issued, or done.
// Returns whether the step was added.
func (p *Plan) Add(groupID, extractor string) bool {
	s := Step{GroupID: groupID, Extractor: extractor}
	if _, ok := p.steps[s]; ok {
		return false
	}
	p.steps[s] = &StepRecord{}
	p.pending = append(p.pending, s)
	return true
}

// Record returns the step's record, or nil for a step the plan never held.
func (p *Plan) Record(s Step) *StepRecord { return p.steps[s] }

// Next pops the next step to execute, marking it issued. The boolean is
// false when no step is currently pending (the plan may still grow).
func (p *Plan) Next() (Step, bool) {
	if len(p.pending) == 0 {
		return Step{}, false
	}
	s := p.pending[0]
	p.pending = p.pending[1:]
	p.steps[s].Status = StepIssued
	p.issued++
	return s, true
}

// settle moves an issued step to a final status; any other step is left
// as it is.
func (p *Plan) settle(s Step, status StepStatus) {
	if r := p.steps[s]; r != nil && r.Status == StepIssued {
		r.Status = status
		p.issued--
		p.settled++
	}
}

// Complete records a step's terminal result and applies any extractor
// suggestions to extend the plan (the dynamic replanning of §3).
func (p *Plan) Complete(s Step, metadata map[string]interface{}) {
	p.settle(s, StepDone)
	for _, suggested := range extractors.Suggestions(metadata) {
		p.Add(s.GroupID, suggested)
	}
}

// Fail records a step as finished without a result (dead-lettered).
func (p *Plan) Fail(s Step) { p.settle(s, StepFailed) }

// Reset returns an issued step to pending (used when its task was lost
// with the endpoint allocation — the Figure 8 restart path).
func (p *Plan) Reset(s Step) {
	if r := p.steps[s]; r != nil && r.Status == StepIssued {
		r.Status = StepPending
		p.issued--
		p.pending = append(p.pending, s)
	}
}

// Done reports whether every step has completed and none are pending or
// in flight.
func (p *Plan) Done() bool {
	return len(p.pending) == 0 && p.issued == 0
}

// Counts reports (pending, issued, done) step counts; done includes
// failed steps.
func (p *Plan) Counts() (pending, issued, done int) {
	return len(p.pending), p.issued, p.settled
}

// String summarizes plan progress.
func (p *Plan) String() string {
	pe, is, dn := p.Counts()
	return fmt.Sprintf("plan %s: %d pending, %d issued, %d done", p.FamilyID, pe, is, dn)
}
