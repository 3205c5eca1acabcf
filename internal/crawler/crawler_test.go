package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/queue"
	"xtract/internal/store"
)

func buildTree(t *testing.T) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS("petrel", nil)
	writes := map[string]string{
		"/data/exp1/INCAR":      "ENCUT = 520\n",
		"/data/exp1/POSCAR":     "si\n1.0\n1 0 0\n0 1 0\n0 0 1\nSi\n1\nDirect\n0 0 0\n",
		"/data/exp1/OUTCAR":     "free  energy   TOTEN  = -1.0 eV\n",
		"/data/exp1/notes.txt":  "relaxation notes for silicon",
		"/data/exp2/run.csv":    "a,b\n1,2\n",
		"/data/exp2/plot.png":   "fakepng",
		"/data/readme.md":       "materials data facility subset",
		"/other/deep/nest/x.py": "import os\n",
	}
	for p, content := range writes {
		if err := fs.Write(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func drainFamilies(t *testing.T, q *queue.Queue) []family.Family {
	t.Helper()
	var out []family.Family
	for _, body := range q.Drain() {
		var f family.Family
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func TestCrawlFindsAllFiles(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 8 {
		t.Fatalf("FilesSeen = %d, want 8", stats.FilesSeen)
	}
	if stats.DirsListed != 6 { // /, /data, /data/exp1, /data/exp2, /other, /other/deep, /other/deep/nest = 7? count below
		// directories: / , /data, /data/exp1, /data/exp2, /other, /other/deep, /other/deep/nest
		if stats.DirsListed != 7 {
			t.Fatalf("DirsListed = %d", stats.DirsListed)
		}
	}
	fams := drainFamilies(t, out)
	total := 0
	for _, f := range fams {
		total += len(f.Groups)
	}
	if total != 8 {
		t.Fatalf("groups across families = %d, want 8", total)
	}
	// Every family carries store, base path, and file metadata.
	for _, f := range fams {
		if f.Store != "petrel" || f.BasePath == "" {
			t.Fatalf("family missing provenance: %+v", f)
		}
		for _, g := range f.Groups {
			for _, p := range g.Files {
				if _, ok := f.FileMeta[p]; !ok {
					t.Fatalf("family %s missing FileMeta for %s", f.ID, p)
				}
			}
		}
	}
}

func TestCrawlAssignsExtractors(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	byFile := make(map[string]string)
	for _, f := range drainFamilies(t, out) {
		for _, g := range f.Groups {
			for _, p := range g.Files {
				byFile[p] = g.Extractor
			}
		}
	}
	want := map[string]string{
		"/data/exp1/INCAR":      "matio",
		"/data/exp2/run.csv":    "tabular",
		"/data/exp2/plot.png":   "imagesort",
		"/other/deep/nest/x.py": "pycode",
	}
	for p, ext := range want {
		if byFile[p] != ext {
			t.Errorf("extractor for %s = %q, want %q", p, byFile[p], ext)
		}
	}
}

func TestMatIOGrouperBundlesVASP(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, MatIOGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/data/exp1"}); err != nil {
		t.Fatal(err)
	}
	fams := drainFamilies(t, out)
	var vaspGroup, aseGroup *family.Group
	for i := range fams {
		for j := range fams[i].Groups {
			g := &fams[i].Groups[j]
			switch g.Extractor {
			case "matio":
				vaspGroup = g
			case "ase":
				aseGroup = g
			}
		}
	}
	if vaspGroup == nil || len(vaspGroup.Files) != 3 {
		t.Fatalf("vasp group = %+v", vaspGroup)
	}
	if aseGroup == nil || len(aseGroup.Files) != 1 {
		t.Fatalf("ase group = %+v", aseGroup)
	}
	// The VASP and ASE groups share POSCAR, so min-transfers must put
	// them in the same family.
	foundTogether := false
	for _, f := range fams {
		hasVasp, hasASE := false, false
		for _, g := range f.Groups {
			if g.Extractor == "matio" {
				hasVasp = true
			}
			if g.Extractor == "ase" {
				hasASE = true
			}
		}
		if hasVasp && hasASE {
			foundTogether = true
		}
	}
	if !foundTogether {
		t.Fatal("overlapping vasp/ase groups split across families")
	}
}

func TestExtensionGrouper(t *testing.T) {
	lib := extractors.DefaultLibrary()
	files := []store.FileInfo{
		{Path: "/d/a.csv", Name: "a.csv", Extension: "csv"},
		{Path: "/d/b.csv", Name: "b.csv", Extension: "csv"},
		{Path: "/d/c.txt", Name: "c.txt", Extension: "txt"},
		{Path: "/d/noext", Name: "noext"},
	}
	groups := ExtensionGrouper(lib)("/d", files)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// Sorted: <none>, csv, txt
	if len(groups[1].Files) != 2 || groups[1].Extractor != "tabular" {
		t.Fatalf("csv group = %+v", groups[1])
	}
}

func TestDirectoryGrouper(t *testing.T) {
	lib := extractors.DefaultLibrary()
	files := []store.FileInfo{
		{Path: "/d/a.csv", Name: "a.csv", Extension: "csv"},
		{Path: "/d/b.txt", Name: "b.txt", Extension: "txt"},
	}
	groups := DirectoryGrouper(lib)("/d", files)
	if len(groups) != 1 || len(groups[0].Files) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestCrawlParallelSpeedupOnSlowStore(t *testing.T) {
	// On a latency-injected store, 8 workers must finish a wide crawl in
	// much less virtual time than 1 worker (the Figure 4 effect).
	timeFor := func(workers int) time.Duration {
		clk := clock.NewFake(time.Unix(0, 0))
		inner := store.NewMemFS("slow", clk.Now)
		for i := 0; i < 32; i++ {
			if err := inner.Write(fmt.Sprintf("/root/d%02d/f.txt", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		slow := store.WithLatency(inner, clk, store.LatencyProfile{ListRTT: 100 * time.Millisecond})
		out := queue.New("families", clk)
		c := New(slow, SingleFileGrouper(extractors.DefaultLibrary()), out)
		c.Workers = workers
		start := clk.Now()
		done := make(chan struct{})
		go func() {
			if _, err := c.Crawl(context.Background(), []string{"/root"}); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		for {
			select {
			case <-done:
				return clk.Since(start)
			default:
				if clk.PendingTimers() > 0 {
					clk.Advance(10 * time.Millisecond)
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	serial := timeFor(1)
	parallel := timeFor(8)
	if parallel >= serial {
		t.Fatalf("8 workers (%v) not faster than 1 (%v)", parallel, serial)
	}
	if serial < 3*parallel {
		t.Fatalf("speedup too small: serial %v, parallel %v", serial, parallel)
	}
}

func TestCrawlContextCancel(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Crawl(ctx, []string{"/"}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestCrawlMissingRoot(t *testing.T) {
	fs := store.NewMemFS("empty", nil)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	stats, err := c.Crawl(context.Background(), []string{"/does/not/exist"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ListErrors != 1 || stats.FilesSeen != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCrawlNilGrouper(t *testing.T) {
	fs := store.NewMemFS("x", nil)
	out := queue.New("families", clock.NewReal())
	c := New(fs, nil, out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err == nil {
		t.Fatal("expected error for nil grouper")
	}
}

func TestCrawlNaiveVsMinTransfers(t *testing.T) {
	// With the MatIO grouper, POSCAR belongs to both the vasp and ase
	// groups; naive shipping emits more families than min-transfers and
	// strictly more redundant transfers.
	fs := buildTree(t)
	run := func(useMT bool) []family.Family {
		out := queue.New("families", clock.NewReal())
		c := New(fs, MatIOGrouper(extractors.DefaultLibrary()), out)
		c.UseMinTransfers = useMT
		if _, err := c.Crawl(context.Background(), []string{"/data/exp1"}); err != nil {
			t.Fatal(err)
		}
		return drainFamilies(t, out)
	}
	mt := run(true)
	naive := run(false)
	if family.RedundantTransfers(naive) <= family.RedundantTransfers(mt)-1 {
		t.Fatalf("naive redundant %d, min-transfers %d",
			family.RedundantTransfers(naive), family.RedundantTransfers(mt))
	}
	if family.RedundantTransfers(mt) != 0 {
		t.Fatalf("min-transfers redundant = %d, want 0", family.RedundantTransfers(mt))
	}
	if family.RedundantTransfers(naive) == 0 {
		t.Fatal("naive should have redundant transfers here")
	}
}

func TestCrawlRetriesRateLimitedDriveStore(t *testing.T) {
	// A rate-limited Drive store rejects bursts; the crawler must back
	// off and finish the crawl anyway.
	clk := clock.NewReal()
	drive := store.NewDriveStore("gdrive", clk, 200, 2) // tight burst, fast refill
	for i := 0; i < 6; i++ {
		if err := drive.Write(fmt.Sprintf("/docs/d%d/f.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	out := queue.New("families", clk)
	c := New(drive, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 2
	c.RateLimitBackoff = 2 * time.Millisecond
	c.RateLimitRetries = 8
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 6 {
		t.Fatalf("FilesSeen = %d (list errors %d, rate limited %d)",
			stats.FilesSeen, stats.ListErrors, c.RateLimited.Value())
	}
	if c.RateLimited.Value() == 0 {
		t.Fatal("rate limiter never tripped; test is vacuous")
	}
}

func TestCrawlRateLimitRetriesExhausted(t *testing.T) {
	// With zero refill the retries run out and the listing counts as an
	// error rather than hanging.
	clk := clock.NewReal()
	drive := store.NewDriveStore("gdrive", clk, 0.000001, 1)
	_ = drive.Write("/d/f.txt", []byte("x"))
	out := queue.New("families", clk)
	c := New(drive, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	c.RateLimitBackoff = time.Microsecond
	c.RateLimitRetries = 2
	stats, err := c.Crawl(context.Background(), []string{"/", "/d"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ListErrors == 0 {
		t.Fatalf("expected exhausted retries to surface as list errors: %+v", stats)
	}
}

func TestElasticScalingSpawnsWorkers(t *testing.T) {
	// A wide, slow store overloads 1 initial worker; elastic scaling must
	// spawn more and the crawl must still find everything.
	clk := clock.NewReal()
	inner := store.NewMemFS("wide", nil)
	for i := 0; i < 200; i++ {
		if err := inner.Write(fmt.Sprintf("/r/d%03d/f.txt", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	slow := store.WithLatency(inner, clk, store.LatencyProfile{ListRTT: time.Millisecond})
	out := queue.New("families", clk)
	c := New(slow, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	c.MaxWorkers = 8
	c.ScaleBacklog = 2
	stats, err := c.Crawl(context.Background(), []string{"/r"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 200 {
		t.Fatalf("FilesSeen = %d", stats.FilesSeen)
	}
	if c.WorkersSpawned.Value() == 0 {
		t.Fatal("no workers spawned despite backlog")
	}
	if c.WorkersSpawned.Value() > 7 {
		t.Fatalf("spawned %d workers, cap is 7", c.WorkersSpawned.Value())
	}
}

func TestElasticScalingDisabledByDefault(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	if c.WorkersSpawned.Value() != 0 {
		t.Fatalf("spawned %d workers with scaling disabled", c.WorkersSpawned.Value())
	}
}

func TestCrawlFingerprintRecordsContentHashes(t *testing.T) {
	fs := buildTree(t)

	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range drainFamilies(t, out) {
		for p, fm := range f.FileMeta {
			if fm.ContentHash != "" {
				t.Fatalf("fingerprinting off but %s has hash %q", p, fm.ContentHash)
			}
		}
	}

	c = New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Fingerprint = true
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]string)
	for _, f := range drainFamilies(t, out) {
		for p, fm := range f.FileMeta {
			if fm.ContentHash == "" {
				t.Fatalf("fingerprinting on but %s has no hash", p)
			}
			hashes[fm.ContentHash] = p
		}
	}
	// Hashes are content-addressed: distinct contents, distinct hashes.
	if len(hashes) < 8 {
		t.Fatalf("only %d distinct hashes for 8 distinct files", len(hashes))
	}
}

// TestFamilyIDFormat pins the concatenated family ID to the
// fmt.Sprintf("%s:%s#%d") form the journal, recovery and destination
// document names were built on.
func TestFamilyIDFormat(t *testing.T) {
	cases := []struct {
		store, dir string
		i          int
	}{
		{"petrel", "/data/exp1", 0},
		{"local", "/", 7},
		{"gdrive-east", "/a b/ünï#:", 12345},
		{"", "", 0},
	}
	for _, c := range cases {
		want := fmt.Sprintf("%s:%s#%d", c.store, c.dir, c.i)
		if got := familyID(c.store, c.dir, c.i); got != want {
			t.Errorf("familyID(%q, %q, %d) = %q, want %q", c.store, c.dir, c.i, got, want)
		}
	}
}

// TestFamilyScratchNotAliasedByQueue pins the crawler's encode-scratch
// ownership rule: queue.Send copies each body, so the pooled buffer is
// reused as soon as Send returns. A scribbler recycles released pool
// scratch while crawl workers encode and a consumer decodes the queued
// families; under -race an aliased body trips the detector, and without
// it the scribbled bytes fail the decode or the file accounting below.
func TestFamilyScratchNotAliasedByQueue(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	want := make(map[string]bool)
	for d := 0; d < 40; d++ {
		for f := 0; f < 6; f++ {
			p := fmt.Sprintf("/data/d%02d/file%d.txt", d, f)
			if err := fs.Write(p, []byte(p)); err != nil {
				t.Fatal(err)
			}
			want[p] = true
		}
	}
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 4

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // scribbler
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			b := fastjson.GetBuf()
			s := (*b)[:cap(*b)]
			for i := range s {
				s[i] = 'X'
			}
			fastjson.PutBuf(b)
		}
	}()
	var bodies [][]byte
	go func() { // consumer, reading bodies while the crawl still runs
		defer wg.Done()
		for {
			msgs := out.Receive(16, time.Minute)
			for _, m := range msgs {
				bodies = append(bodies, m.Body)
				_ = out.Delete(m.Receipt)
			}
			if len(msgs) == 0 {
				select {
				case <-done:
					if out.Len() == 0 {
						return
					}
				case <-time.After(time.Millisecond):
				}
			}
		}
	}()
	stats, err := c.Crawl(context.Background(), []string{"/"})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(bodies)) != stats.FamiliesEmitted {
		t.Fatalf("consumed %d families, crawler emitted %d", len(bodies), stats.FamiliesEmitted)
	}
	for _, body := range bodies {
		var fam family.Family
		if err := json.Unmarshal(body, &fam); err != nil {
			t.Fatalf("queued family corrupted by scratch reuse: %v\n%s", err, body)
		}
		for p := range fam.FileMeta {
			if !want[p] {
				t.Fatalf("family %q carries unknown or duplicate file %q", fam.ID, p)
			}
			delete(want, p)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d files never reached the queue intact", len(want))
	}
}
