// Package crawler implements Xtract's elastically parallel crawler: a
// pool of worker threads draining a shared directory queue, listing each
// directory on the remote store, applying a grouping function to the
// files found, packaging overlapping groups into min-transfer families,
// and enqueueing serialized family objects for the Xtract service
// (paper §4.1, evaluated in Figure 4).
package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/dedup"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/metrics"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// GroupingFunc assigns the files of one directory to groups. Grouping
// functions consider only crawl-time metadata (names, extensions, paths,
// sizes) — never file contents — so the crawler stays lightweight.
type GroupingFunc func(dir string, files []store.FileInfo) []family.Group

// Stats summarizes a completed crawl.
type Stats struct {
	DirsListed      int64
	FilesSeen       int64
	GroupsFormed    int64
	FamiliesEmitted int64
	BytesSeen       int64
	ListErrors      int64
}

// Add sums o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.DirsListed += o.DirsListed
	s.FilesSeen += o.FilesSeen
	s.GroupsFormed += o.GroupsFormed
	s.FamiliesEmitted += o.FamiliesEmitted
	s.BytesSeen += o.BytesSeen
	s.ListErrors += o.ListErrors
}

// Crawler traverses a store and emits families onto an output queue.
type Crawler struct {
	// Store is the storage system to crawl.
	Store store.Store
	// Workers is the number of concurrent crawl threads.
	Workers int
	// Grouper assigns directory files to groups.
	Grouper GroupingFunc
	// MaxFamilySize is the min-transfers family size bound s.
	MaxFamilySize int
	// Seed drives the randomized min-cut for reproducible crawls.
	Seed int64
	// Out receives one family.Family per family, encoded by
	// family.AppendJSON (the same bytes as encoding/json).
	Out *queue.Queue
	// UseMinTransfers toggles the min-transfers packaging; when false,
	// each group ships as its own family (the Figure 7 baseline).
	UseMinTransfers bool
	// Clock paces rate-limit backoff (default: real clock).
	Clock clock.Clock
	// MaxWorkers enables elastic scaling: when the directory backlog
	// exceeds ScaleBacklog×(current workers), additional crawl workers
	// start, up to this bound (the paper's crawler "starts new EC2
	// resources ... if current instances are overloaded"). 0 disables.
	MaxWorkers int
	// ScaleBacklog is the backlog-per-worker ratio that triggers scaling
	// (default 4).
	ScaleBacklog int
	// RateLimitRetries bounds retries of a rate-limited listing (the
	// Google Drive API path); each retry backs off exponentially from
	// RateLimitBackoff.
	RateLimitRetries int
	RateLimitBackoff time.Duration
	// Fingerprint makes the crawler read each file and record its
	// content hash (dedup.ExactKey) into family.FileMeta.ContentHash,
	// the key material for the extraction result cache. This is the one
	// deliberate exception to "the crawler never reads contents": the
	// extra read is what turns a warm re-run into a crawl-bound pass. A
	// file that cannot be read keeps an empty hash and stays uncacheable.
	Fingerprint bool

	DirsListed      metrics.Counter
	FilesSeen       metrics.Counter
	FamiliesEmitted metrics.Counter
	ListErrors      metrics.Counter
	RateLimited     metrics.Counter
	WorkersSpawned  metrics.Counter

	// Live observability handles, shared across the crawls of a service
	// and set by the caller (nil-safe when unset).
	ObsDirsListed      *obs.Counter
	ObsFilesSeen       *obs.Counter
	ObsGroupsFormed    *obs.Counter
	ObsFamiliesEmitted *obs.Counter
	ObsBytesSeen       *obs.Counter
	ObsListErrors      *obs.Counter
}

// New returns a crawler with sensible defaults (16 workers, min-transfers
// on, family size 16).
func New(s store.Store, grouper GroupingFunc, out *queue.Queue) *Crawler {
	return &Crawler{
		Store:            s,
		Workers:          16,
		Grouper:          grouper,
		MaxFamilySize:    16,
		Seed:             1,
		Out:              out,
		UseMinTransfers:  true,
		Clock:            clock.NewReal(),
		RateLimitRetries: 4,
		RateLimitBackoff: 100 * time.Millisecond,
	}
}

// dirQueue is the shared work queue of directories with termination
// detection: the crawl is done when no items remain and no worker still
// holds one.
type dirQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	items       []string
	outstanding int
	closed      bool
}

func newDirQueue() *dirQueue {
	q := &dirQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push adds a directory, incrementing the outstanding count.
func (q *dirQueue) push(dir string) {
	q.mu.Lock()
	q.items = append(q.items, dir)
	q.outstanding++
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pop blocks until a directory is available or the crawl has drained.
func (q *dirQueue) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && q.outstanding > 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return "", false
	}
	dir := q.items[0]
	q.items = q.items[1:]
	return dir, true
}

// done marks one popped directory fully processed.
func (q *dirQueue) done() {
	q.mu.Lock()
	q.outstanding--
	if q.outstanding == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// close aborts the crawl, waking all waiting workers.
func (q *dirQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Crawl traverses the given roots with the configured worker pool and
// returns aggregate statistics once every reachable directory has been
// listed (or ctx is cancelled).
func (c *Crawler) Crawl(ctx context.Context, roots []string) (Stats, error) {
	if c.Grouper == nil {
		return Stats{}, fmt.Errorf("crawler: nil grouping function")
	}
	workers := c.Workers
	if workers < 1 {
		workers = 1
	}
	dq := newDirQueue()
	for _, r := range roots {
		dq.push(store.Clean(r))
	}
	// Stop the queue if the context dies.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			dq.close()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	var groupsFormed, bytesSeen metrics.Counter
	spawn := func(seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				dir, ok := dq.pop()
				if !ok {
					return
				}
				c.processDir(dir, dq, rng, &groupsFormed, &bytesSeen)
				dq.done()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		spawn(c.Seed + int64(w))
	}
	// Elastic scaling: add workers while the backlog outruns the pool.
	if c.MaxWorkers > workers {
		ratio := c.ScaleBacklog
		if ratio < 1 {
			ratio = 4
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			current := workers
			for current < c.MaxWorkers {
				dq.mu.Lock()
				backlog := len(dq.items)
				outstanding := dq.outstanding
				closed := dq.closed
				dq.mu.Unlock()
				if closed || (backlog == 0 && outstanding == 0) {
					return
				}
				if backlog > ratio*current {
					spawn(c.Seed + int64(current) + 1000)
					current++
					c.WorkersSpawned.Inc()
					continue
				}
				select {
				case <-ctx.Done():
					return
				case <-c.Clock.After(time.Millisecond):
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	return Stats{
		DirsListed:      c.DirsListed.Value(),
		FilesSeen:       c.FilesSeen.Value(),
		GroupsFormed:    groupsFormed.Value(),
		FamiliesEmitted: c.FamiliesEmitted.Value(),
		BytesSeen:       bytesSeen.Value(),
		ListErrors:      c.ListErrors.Value(),
	}, nil
}

// listWithBackoff lists a directory, retrying rate-limit rejections
// (e.g., the Drive API's token bucket) with exponential backoff.
func (c *Crawler) listWithBackoff(dir string) ([]store.FileInfo, error) {
	backoff := c.RateLimitBackoff
	for attempt := 0; ; attempt++ {
		infos, err := c.Store.List(dir)
		if err == nil || !errors.Is(err, store.ErrRateLimit) || attempt >= c.RateLimitRetries {
			return infos, err
		}
		c.RateLimited.Inc()
		c.Clock.Sleep(backoff)
		backoff *= 2
	}
}

// processDir lists one directory, queues subdirectories, groups files,
// and emits families.
func (c *Crawler) processDir(dir string, dq *dirQueue, rng *rand.Rand, groupsFormed, bytesSeen *metrics.Counter) {
	infos, err := c.listWithBackoff(dir)
	if err != nil {
		c.ListErrors.Inc()
		c.ObsListErrors.Inc()
		return
	}
	c.DirsListed.Inc()
	c.ObsDirsListed.Inc()
	var files []store.FileInfo
	for _, fi := range infos {
		if fi.IsDir {
			dq.push(fi.Path)
			continue
		}
		files = append(files, fi)
		c.FilesSeen.Inc()
		bytesSeen.Add(fi.Size)
	}
	c.ObsFilesSeen.Add(float64(len(files)))
	if len(files) == 0 {
		return
	}
	var total int64
	for _, fi := range files {
		total += fi.Size
	}
	c.ObsBytesSeen.Add(float64(total))
	groups := c.Grouper(dir, files)
	if len(groups) == 0 {
		return
	}
	groupsFormed.Add(int64(len(groups)))
	c.ObsGroupsFormed.Add(float64(len(groups)))

	var fams []family.Family
	if c.UseMinTransfers {
		fams = family.MinTransfers(groups, c.MaxFamilySize, rng)
	} else {
		fams = family.Naive(groups)
	}
	metaOf := make(map[string]family.FileMeta, len(files))
	for _, fi := range files {
		fm := family.FileMeta{Size: fi.Size, Extension: fi.Extension, MimeType: fi.MimeType}
		if c.Fingerprint {
			if data, err := c.Store.Read(fi.Path); err == nil {
				fm.ContentHash = dedup.ExactKey(data)
			}
		}
		metaOf[fi.Path] = fm
	}
	name := c.Store.Name()
	buf := fastjson.GetBuf()
	defer fastjson.PutBuf(buf)
	for i := range fams {
		fam := &fams[i]
		fam.ID = familyID(name, dir, i)
		fam.Store = name
		fam.BasePath = dir
		fam.FileMeta = make(map[string]family.FileMeta, len(fam.Files))
		for _, g := range fam.Groups {
			for _, f := range g.Files {
				fam.FileMeta[f] = metaOf[f]
			}
		}
		body, err := family.AppendJSON((*buf)[:0], fam)
		*buf = body
		if err != nil {
			continue
		}
		c.Out.Send(body) // copies the body, so buf is reused next family
		c.FamiliesEmitted.Inc()
		c.ObsFamiliesEmitted.Inc()
	}
}

// familyID names the i-th family of a directory, "store:dir#i".
func familyID(store, dir string, i int) string {
	return store + ":" + dir + "#" + strconv.Itoa(i)
}
