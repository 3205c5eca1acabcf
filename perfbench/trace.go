package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanCap bounds the spans kept in memory per traced pass; later spans
// are counted as dropped. Aggregates (counts, busy time, wait samples)
// cover every call regardless.
const spanCap = 200_000

// span is one timed call at a layer boundary. Spans of one family (or
// one API job) share Trace; Parent names the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	// Start and End are microseconds since the probe's origin.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

// stamp is a moment on the probe's clock plus the span recorded there.
type stamp struct {
	at   int64
	span uint64
}

// placement records when and where a group's family was placed.
type placement struct {
	stamp
	offHome bool
}

// probe records spans and per-layer aggregates from the wrappers. It is
// off during untraced passes: every wrapper then forwards its call and
// only the correctness oracle runs. All state sits under one mutex; its
// cost is part of the reported tracing overhead.
type probe struct {
	on   atomic.Bool
	base time.Time

	mu      sync.Mutex
	counts  map[string]float64
	samples map[string][]float64
	spans   []span
	dropped int64
	nextID  uint64

	// Join state between boundaries, keyed by site+dir (lists, grouper
	// returns) and by group ID (placement, extraction end).
	listed   map[string]uint64
	grouped  map[string]stamp
	placed   map[string]placement
	extEnd   map[string]int64
	crawlLo  int64
	crawlHi  int64
	crawlHas bool
}

func newProbe() *probe {
	p := &probe{base: time.Now()}
	p.reset()
	return p
}

// reset clears everything recorded so far (start of a traced pass).
func (p *probe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts = make(map[string]float64)
	p.samples = make(map[string][]float64)
	p.spans = nil
	p.dropped = 0
	p.listed = make(map[string]uint64)
	p.grouped = make(map[string]stamp)
	p.placed = make(map[string]placement)
	p.extEnd = make(map[string]int64)
	p.crawlHas = false
}

// endJob folds one bulk job's crawl span into the aggregates and drops
// the per-job join state so memory stays bounded across jobs.
func (p *probe) endJob() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crawlHas {
		p.counts["crawler.span_ms"] += float64(p.crawlHi-p.crawlLo) / 1e6
	}
	p.crawlHas = false
	clear(p.listed)
	clear(p.grouped)
	clear(p.placed)
	clear(p.extEnd)
}

func (p *probe) enabled() bool { return p.on.Load() }

// now is nanoseconds since the probe's origin (monotonic).
func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// Locked helpers: callers hold p.mu.

func (p *probe) addLocked(name string, v float64) { p.counts[name] += v }

func (p *probe) sampleLocked(name string, v float64) {
	p.samples[name] = append(p.samples[name], v)
}

func (p *probe) spanLocked(name, trace string, parent uint64, start, end int64) uint64 {
	p.nextID++
	if len(p.spans) >= spanCap {
		p.dropped++
		return p.nextID
	}
	p.spans = append(p.spans, span{
		ID: p.nextID, Parent: parent, Name: name, Trace: trace,
		Start: float64(start) / 1e3, End: float64(end) / 1e3,
	})
	return p.nextID
}

// crawlLocked widens the current job's crawl window.
func (p *probe) crawlLocked(start, end int64) {
	if !p.crawlHas || start < p.crawlLo {
		p.crawlLo = start
	}
	if !p.crawlHas || end > p.crawlHi {
		p.crawlHi = end
	}
	p.crawlHas = true
}

// count returns an aggregate.
func (p *probe) count(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[name]
}

// quantile returns the q-quantile of a sample set (0 when empty).
func (p *probe) quantile(name string, q float64) float64 {
	p.mu.Lock()
	xs := append([]float64(nil), p.samples[name]...)
	p.mu.Unlock()
	return quantile(xs, q)
}

// writeSpans writes the kept spans as JSON lines, in start order.
func (p *probe) writeSpans(path string) (kept int, dropped int64, err error) {
	p.mu.Lock()
	spans := p.spans
	dropped = p.dropped
	p.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, dropped, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return 0, dropped, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, dropped, err
	}
	return len(spans), dropped, f.Close()
}
