package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// harness wires a full live Xtract deployment over in-memory stores.
type harness struct {
	clk     clock.Clock
	svc     *Service
	fsvc    *faas.Service
	fabric  *transfer.Fabric
	pf      *transfer.Prefetcher
	valsvc  *validate.Service
	dest    *store.MemFS
	cancel  context.CancelFunc
	sites   map[string]*store.MemFS
	started []*faas.Endpoint
}

type siteSpec struct {
	name    string
	workers int // 0 = storage-only
}

func newHarness(t *testing.T, sites []siteSpec, policy scheduler.Policy) *harness {
	t.Helper()
	return newHarnessCfg(t, sites, policy, nil)
}

// newHarnessCfg is newHarness with a config hook applied before the
// service is built (e.g. to attach a result cache).
func newHarnessCfg(t *testing.T, sites []siteSpec, policy scheduler.Policy, mut func(*Config)) *harness {
	t.Helper()
	clk := clock.NewReal()
	h := &harness{clk: clk, sites: make(map[string]*store.MemFS)}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel

	h.fsvc = faas.NewService(clk, faas.Costs{})
	h.fabric = transfer.NewFabric(clk)
	families, prefetch, prefetchDone, results := NewQueues(clk)

	cfg := Config{
		Clock:         clk,
		FaaS:          h.fsvc,
		Fabric:        h.fabric,
		Registry:      registry.New(clk, 0),
		Library:       extractors.DefaultLibrary(),
		FamilyQueue:   families,
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone,
		ResultQueue:   results,
		Policy:        policy,
		Checkpoint:    true,
	}
	if mut != nil {
		mut(&cfg)
	}
	h.svc = New(cfg)

	for _, spec := range sites {
		fs := store.NewMemFS(spec.name, nil)
		h.sites[spec.name] = fs
		h.fabric.AddEndpoint(spec.name, fs)
		site := &Site{
			Name:       spec.name,
			Store:      fs,
			TransferID: spec.name,
			StagePath:  "/xtract-stage",
		}
		if spec.workers > 0 {
			ep := faas.NewEndpoint("ep-"+spec.name, spec.workers, clk)
			h.fsvc.RegisterEndpoint(ep)
			if err := ep.Start(ctx); err != nil {
				t.Fatal(err)
			}
			site.Compute = ep
			h.started = append(h.started, ep)
		}
		h.svc.AddSite(site)
	}
	if err := h.svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}

	h.pf = transfer.NewPrefetcher(h.fabric, prefetch, prefetchDone, clk)
	h.pf.PollInterval = time.Millisecond
	go h.pf.Run(ctx, 2)

	h.dest = store.NewMemFS("user-dest", nil)
	h.valsvc = validate.NewService(validate.Passthrough{}, results, h.dest, clk)
	h.valsvc.PollInterval = time.Millisecond
	go h.valsvc.Run(ctx)
	return h
}

func (h *harness) close() { h.cancel() }

// seedScience writes a small mixed-type repository.
func seedScience(t *testing.T, fs *store.MemFS, root string) int {
	t.Helper()
	files := map[string]string{
		root + "/exp1/INCAR":     "ENCUT = 520\nISMEAR = 0\n",
		root + "/exp1/POSCAR":    "si\n1.0\n5.43 0 0\n0 5.43 0\n0 0 5.43\nSi\n2\nDirect\n0 0 0\n0.25 0.25 0.25\n",
		root + "/exp1/OUTCAR":    "free  energy   TOTEN  = -10.84 eV\nreached required accuracy\n",
		root + "/exp2/data.csv":  "x,y\n1,2\n3,4\n5,6\n",
		root + "/exp2/notes.txt": "perovskite solar cell absorber layers studied extensively",
		root + "/readme.md":      "materials data facility sample subset",
	}
	for p, content := range files {
		if err := fs.Write(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

func TestEndToEndLocalExtraction(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["theta"], "/mdf")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/mdf"},
		Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crawl.FilesSeen != 6 {
		t.Fatalf("crawl files = %d", stats.Crawl.FilesSeen)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.StepsProcessed < stats.FamiliesDone {
		t.Fatalf("steps %d < families %d", stats.StepsProcessed, stats.FamiliesDone)
	}
	// Validation output landed at the destination. Drain consumes only
	// visible messages; the Run goroutine may hold a batch in flight, so
	// poll briefly.
	var infos []store.FileInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.valsvc.Drain()
		var err error
		infos, err = h.dest.List("/metadata")
		if err == nil && int64(len(infos)) == stats.FamiliesDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("validated docs = %d, want %d (%v)", len(infos), stats.FamiliesDone, err)
		}
		time.Sleep(time.Millisecond)
	}
	// The VASP family's metadata includes structure and results blocks.
	foundStructure := false
	for _, fi := range infos {
		data, _ := h.dest.Read(fi.Path)
		if strings.Contains(string(data), `"structure"`) && strings.Contains(string(data), `"incar"`) {
			foundStructure = true
		}
	}
	if !foundStructure {
		t.Fatal("no validated document carries VASP metadata")
	}
}

// TestDestinationDocumentsDeterministic runs the same job twice on fresh
// deployments and requires byte-identical destination documents: a
// family's file list must not follow map iteration order.
func TestDestinationDocumentsDeterministic(t *testing.T) {
	run := func() map[string][]byte {
		h := newHarness(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{})
		defer h.close()
		fs := h.sites["theta"]
		seedScience(t, fs, "/mdf")
		for i := 0; i < 12; i++ {
			p := fmt.Sprintf("/mdf/many/n%02d.txt", i)
			if err := fs.Write(p, []byte("notes on sample "+p)); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: "theta",
			Roots:    []string{"/mdf"},
			Grouper:  crawler.DirectoryGrouper(extractors.DefaultLibrary()),
		}})
		if err != nil {
			t.Fatal(err)
		}
		docs := make(map[string][]byte)
		deadline := time.Now().Add(10 * time.Second)
		for int64(len(docs)) < stats.FamiliesDone {
			h.valsvc.Drain()
			infos, _ := h.dest.List("/metadata")
			for _, fi := range infos {
				data, err := h.dest.Read(fi.Path)
				if err != nil {
					t.Fatal(err)
				}
				docs[fi.Path] = data
			}
			if time.Now().After(deadline) {
				t.Fatalf("validated docs = %d, want %d", len(docs), stats.FamiliesDone)
			}
			time.Sleep(time.Millisecond)
		}
		return docs
	}
	first, second := run(), run()
	if len(first) != len(second) || len(first) == 0 {
		t.Fatalf("runs wrote %d and %d documents", len(first), len(second))
	}
	for path, doc := range first {
		if !bytes.Equal(doc, second[path]) {
			t.Errorf("%s differs between runs:\n%s\n%s", path, doc, second[path])
		}
	}
}

func TestEndToEndStagingFromStorageOnlySite(t *testing.T) {
	// Petrel has no compute: files must be prefetched to River.
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["petrel"], "/data")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("no bytes staged despite computeless home")
	}
	// Staged copies exist on river under the stage path.
	if _, err := h.sites["river"].Stat("/xtract-stage/data/readme.md"); err != nil {
		t.Fatalf("staged file missing: %v", err)
	}
}

// TestDeleteStagedKeepsCopiesForSuggestedSteps stages a table-bearing
// .txt file from a storage-only home to a compute site that deletes
// staged copies. keyword's result suggests tabular over the same staged
// file, so the copy must outlive keyword's step: the family completes
// with both steps, and the copy is gone once the family is terminal.
func TestDeleteStagedKeepsCopiesForSuggestedSteps(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
	}, scheduler.LocalPolicy{})
	defer h.close()
	river, _ := h.svc.Site("river")
	river.DeleteStaged = true
	if err := h.sites["petrel"].Write("/d/table.txt", []byte("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")); err != nil {
		t.Fatal(err)
	}

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone != 1 || stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
		t.Fatalf("family did not complete: %+v", stats)
	}
	if stats.StepsProcessed < 2 {
		t.Fatalf("steps processed = %d, want keyword and the suggested tabular", stats.StepsProcessed)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("nothing staged")
	}
	if _, err := h.sites["river"].Stat("/xtract-stage/d/table.txt"); err == nil {
		t.Fatal("staged copy still present after the family finished")
	}
}

func TestEndToEndDynamicPlanExpansion(t *testing.T) {
	// A .txt file containing a table triggers keyword → tabular expansion.
	h := newHarness(t, []siteSpec{{name: "midway", workers: 2}}, scheduler.LocalPolicy{})
	defer h.close()
	fs := h.sites["midway"]
	table := "a,b,c\n1,2,3\n4,5,6\n7,8,9\n"
	if err := fs.Write("/d/table.txt", []byte(table)); err != nil {
		t.Fatal(err)
	}
	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "midway",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// keyword + suggested tabular = at least 2 steps on 1 family.
	if stats.FamiliesDone != 1 || stats.StepsProcessed < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	var infos2 []store.FileInfo
	deadline2 := time.Now().Add(10 * time.Second)
	for len(infos2) == 0 && time.Now().Before(deadline2) {
		h.valsvc.Drain()
		infos2, _ = h.dest.List("/metadata")
		time.Sleep(time.Millisecond)
	}
	if len(infos2) == 0 {
		t.Fatal("no validated documents")
	}
	data, _ := h.dest.Read(infos2[0].Path)
	var doc map[string]interface{}
	_ = json.Unmarshal(data, &doc)
	md := doc["metadata"].(map[string]interface{})
	hasTabular := false
	for key := range md {
		if strings.HasSuffix(key, "/tabular") {
			hasTabular = true
		}
	}
	if !hasTabular {
		t.Fatalf("dynamic tabular step missing; keys: %v", mdKeys(md))
	}
}

func mdKeys(md map[string]interface{}) []string {
	var out []string
	for k := range md {
		out = append(out, k)
	}
	return out
}

func TestEndToEndOffloadRand(t *testing.T) {
	// With RAND 100%, every family offloads from midway to jetstream.
	h := newHarness(t, []siteSpec{
		{name: "midway", workers: 2},
		{name: "jetstream", workers: 2},
	}, &scheduler.RandPolicy{Percent: 100, Rng: newSeededRand()})
	defer h.close()
	seedScience(t, h.sites["midway"], "/repo")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "midway",
		Roots:    []string{"/repo"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("100%% offload but nothing staged")
	}
	// All executed tasks ran on jetstream's endpoint.
	js, _ := h.svc.Site("jetstream")
	mw, _ := h.svc.Site("midway")
	if js.Compute.TasksExecuted.Value() == 0 {
		t.Fatal("jetstream executed nothing")
	}
	if mw.Compute.TasksExecuted.Value() != 0 {
		t.Fatalf("midway executed %d tasks despite full offload", mw.Compute.TasksExecuted.Value())
	}
}

func TestEndToEndCheckpointRestart(t *testing.T) {
	// Stop the only endpoint mid-job; a second endpoint started later
	// picks up resubmitted tasks... simpler: verify lost tasks are
	// resubmitted to the restarted endpoint via checkpoints.
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	families, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		FamilyQueue: families, PrefetchQueue: prefetch,
		PrefetchDone: prefetchDone, ResultQueue: results,
		Checkpoint: true, XtractBatchSize: 1, FuncXBatchSize: 1,
	})
	fs := store.NewMemFS("theta", nil)
	fabric.AddEndpoint("theta", fs)
	ep := faas.NewEndpoint("ep-theta", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{Name: "theta", Store: fs, TransferID: "theta", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	seedScience(t, fs, "/mdf")

	// Kill the endpoint's allocation shortly after the job starts, then
	// bring up a replacement endpoint under the same site.
	go func() {
		time.Sleep(30 * time.Millisecond)
		ep.Stop()
		ep2 := faas.NewEndpoint("ep-theta-2", 2, clk)
		fsvc.RegisterEndpoint(ep2)
		_ = ep2.Start(ctx)
		_ = svc.SwapCompute("theta", ep2)
		_ = svc.RegisterExtractors() // re-register functions on new endpoint
	}()

	stats, err := svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/mdf"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The job must have completed every family despite the restart.
	if stats.FamiliesDone+stats.FamiliesFailed < 6 {
		t.Fatalf("families done+failed = %d, want >= 6", stats.FamiliesDone+stats.FamiliesFailed)
	}
}

func TestRunJobUnknownSite(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "a", workers: 1}}, nil)
	defer h.close()
	if _, err := h.svc.RunJob(context.Background(), []RepoSpec{{SiteName: "nope"}}); err == nil {
		t.Fatal("expected error for unknown site")
	}
}

func TestRunJobNoComputeAnywhere(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "petrel", workers: 0}}, scheduler.LocalPolicy{})
	defer h.close()
	if err := h.sites["petrel"].Write("/d/f.txt", []byte("words here")); err != nil {
		t.Fatal(err)
	}
	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesFailed == 0 || stats.FamiliesDone != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSitesListing(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "b", workers: 1}, {name: "a", workers: 0}}, nil)
	defer h.close()
	got := h.svc.Sites()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sites = %v", got)
	}
	if _, ok := h.svc.Site("a"); !ok {
		t.Fatal("site a missing")
	}
	site, _ := h.svc.Site("a")
	if site.HasCompute() {
		t.Fatal("storage-only site reports compute")
	}
	if site.ReadStore() == nil {
		t.Fatal("ReadStore nil")
	}
}

func TestEndToEndDirectFetch(t *testing.T) {
	// River-style site: no shared disk, workers fetch each file from the
	// Drive-like home store at extraction time (no prefetch staging).
	h := newHarness(t, []siteSpec{
		{name: "gdrive", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	site, _ := h.svc.Site("river")
	site.DirectFetch = true
	seedScience(t, h.sites["gdrive"], "/docs")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "gdrive",
		Roots:    []string{"/docs"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Direct fetch must not stage anything through the prefetcher.
	if stats.BytesStaged != 0 {
		t.Fatalf("direct fetch staged %d bytes", stats.BytesStaged)
	}
	// Nothing landed under the stage directory (checkpoint files are the
	// only river-side writes).
	if _, err := h.sites["river"].Stat("/xtract-stage"); err == nil {
		t.Fatal("stage directory exists despite direct fetch")
	}
}

func TestExcludedExtractorFailsGracefully(t *testing.T) {
	// A site whose container runtime cannot run the keyword extractor
	// (Docker-only on a Singularity-only system): steps targeting it fail
	// without wedging the job.
	h := newHarness(t, []siteSpec{{name: "sing", workers: 2}}, scheduler.LocalPolicy{})
	defer h.close()
	site, _ := h.svc.Site("sing")
	site.ExcludeExtractors = []string{"keyword"}
	if err := h.svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	// Re-registration is additive; wipe the keyword mapping by rebuilding
	// the service would be heavier — instead verify registration skipped
	// the excluded extractor through a fresh harness below.
	h2 := newHarness(t, []siteSpec{{name: "sing", workers: 2}}, scheduler.LocalPolicy{})
	defer h2.close()
	// Rebuild with the exclusion in place before registration.
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	families, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		FamilyQueue: families, PrefetchQueue: prefetch,
		PrefetchDone: prefetchDone, ResultQueue: results,
	})
	fs := store.NewMemFS("sing", nil)
	fabric.AddEndpoint("sing", fs)
	ep := faas.NewEndpoint("ep-sing", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{
		Name: "sing", Store: fs, TransferID: "sing", Compute: ep,
		ExcludeExtractors: []string{"keyword"},
	})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	_ = fs.Write("/d/notes.txt", []byte("free text that wants the keyword extractor"))
	_ = fs.Write("/d/data.csv", []byte("a,b\n1,2\n3,4\n"))
	stats, err := svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "sing",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The CSV family succeeds; the text family's keyword step exhausts
	// its retries (the extractor is not registered here) and the family
	// fails with a dead-letter record instead of looping.
	if stats.StepsFailed == 0 {
		t.Fatalf("excluded extractor did not fail its steps: %+v", stats)
	}
	if stats.FamiliesDone != 1 || stats.FamiliesFailed != 1 {
		t.Fatalf("families done = %d failed = %d, want 1/1", stats.FamiliesDone, stats.FamiliesFailed)
	}
	if stats.StepsDeadLettered == 0 {
		t.Fatalf("expected dead-lettered steps, got %+v", stats)
	}
	rec, err := svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobFailed {
		t.Fatalf("job state = %s, want FAILED", rec.State)
	}
	if len(rec.DeadLetters) == 0 {
		t.Fatalf("job record has no dead letters: %+v", rec)
	}
	dl := rec.DeadLetters[0]
	if dl.Kind != "step" || dl.Extractor != "keyword" || dl.Attempts == 0 {
		t.Fatalf("unexpected dead letter: %+v", dl)
	}
}

func TestEndToEndMultiRepoJob(t *testing.T) {
	// One job spanning two repositories on two sites, as in Listing 2's
	// two-endpoint extraction.
	h := newHarness(t, []siteSpec{
		{name: "anl", workers: 2},
		{name: "uchicago", workers: 2},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["anl"], "/science/data")
	seedScience(t, h.sites["uchicago"], "/other_science/papers")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{
		{SiteName: "anl", Roots: []string{"/science/data"},
			Grouper: crawler.MatIOGrouper(extractors.DefaultLibrary())},
		{SiteName: "uchicago", Roots: []string{"/other_science/papers"},
			Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crawl.FilesSeen != 12 {
		t.Fatalf("files = %d, want 12", stats.Crawl.FilesSeen)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Both endpoints executed work locally (no cross-site staging under
	// LocalPolicy with local compute).
	anl, _ := h.svc.Site("anl")
	uc, _ := h.svc.Site("uchicago")
	if anl.Compute.TasksExecuted.Value() == 0 || uc.Compute.TasksExecuted.Value() == 0 {
		t.Fatalf("task split = %d/%d",
			anl.Compute.TasksExecuted.Value(), uc.Compute.TasksExecuted.Value())
	}
	// The registry served extractor resolutions, with cache hits after
	// the first lookup per extractor.
	if h.svc.cfg.Registry.CacheMisses.Value() == 0 {
		t.Fatal("registry never queried")
	}
	if h.svc.cfg.Registry.CacheHits.Value() == 0 {
		t.Fatal("registry cache never hit")
	}
}

func TestStageCapacityFallbackAndExhaustion(t *testing.T) {
	// Petrel holds the data; river's staging budget is tiny, so families
	// overflow to jetstream; when jetstream also fills, families fail.
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
		{name: "jetstream", workers: 2},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["petrel"], "/data")
	river, _ := h.svc.Site("river")
	js, _ := h.svc.Site("jetstream")
	river.StageCapacityBytes = 64   // fits roughly one small family
	js.StageCapacityBytes = 1 << 20 // plenty

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if js.Compute.TasksExecuted.Value() == 0 {
		t.Fatal("overflow families never reached jetstream")
	}

	// Exhaust every site: all families must fail rather than wedge.
	h2 := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
	}, scheduler.LocalPolicy{})
	defer h2.close()
	seedScience(t, h2.sites["petrel"], "/data")
	r2, _ := h2.svc.Site("river")
	r2.StageCapacityBytes = 1 // nothing fits
	stats2, err := h2.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.FamiliesDone != 0 || stats2.FamiliesFailed == 0 {
		t.Fatalf("stats = %+v", stats2)
	}
}
