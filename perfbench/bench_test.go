package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/store"
)

// planStore records, per destination document, the steps it carries.
type planStore struct {
	*destStore
	plans map[string][]string
}

func (s planStore) Write(path string, data []byte) error {
	var steps []string
	err := eachMember(data, func(key, val []byte) error {
		if string(key) != "metadata" {
			return nil
		}
		return eachMember(val, func(k, _ []byte) error {
			steps = append(steps, string(k))
			return nil
		})
	})
	if err != nil {
		return err
	}
	sort.Strings(steps)
	s.mu.Lock()
	s.plans[path] = steps
	s.mu.Unlock()
	return s.destStore.Write(path, data)
}

// serveSequence runs a fixed closed-loop job sequence through a fresh
// serve-mixed deployment and returns the cache hits and per-document
// plans it produced.
func serveSequence(t *testing.T, traced bool) (int64, map[string][]string) {
	t.Helper()
	src := store.NewMemFS("local", nil)
	for i := 0; i < 3; i++ {
		if _, err := dataset.MaterializeMDF(src, fmt.Sprintf("/s%d", i), 12, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	p, o := newProbe(), newOracle()
	dest := planStore{destStore: newDestStore(o, p), plans: map[string][]string{}}
	srv, err := startServer(src, filepath.Join(t.TempDir(), "journal"), p, o, dest)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	p.on.Store(traced)
	dest.beginJob(false)
	var families int64
	for i, root := range []string{"/s0", "/s1", "/s0", "/s2", "/s1", "/s0"} {
		c := srv.clients[i%tenants]
		id, err := c.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{root}, Grouper: "matio"}}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.WaitJob(id, pollInterval, 30*time.Second)
		if err != nil || st.Stats == nil {
			t.Fatalf("job %s: %v (stats %v)", id, err, st.Stats)
		}
		families += st.Stats.Crawl.FamiliesEmitted
	}
	dest.await(families, 30*time.Second)
	p.on.Store(false)
	if n := o.mismatches.Load(); n > 0 {
		t.Fatalf("traced=%v: %d oracle mismatches, first: %s", traced, n, o.firstMismatch())
	}
	if traced && p.count("extractors.calls") == 0 {
		t.Fatal("traced run recorded no extractor calls")
	}
	stats, _ := srv.d.Service.CacheStats()
	return stats.Hits, dest.plans
}

func TestTracingKeepsCacheHitsAndPlans(t *testing.T) {
	plainHits, plainPlans := serveSequence(t, false)
	tracedHits, tracedPlans := serveSequence(t, true)
	if plainHits == 0 {
		t.Fatal("the repeated subtrees were not served from cache")
	}
	if plainHits != tracedHits {
		t.Errorf("cache hits: untraced %d, traced %d", plainHits, tracedHits)
	}
	if !reflect.DeepEqual(plainPlans, tracedPlans) {
		t.Errorf("plans differ between untraced (%d documents) and traced (%d documents) runs",
			len(plainPlans), len(tracedPlans))
	}
}

type versioned struct{ noop }

func (versioned) Name() string    { return "versioned" }
func (versioned) Version() string { return "7" }

func TestWrappedLibraryKeepsVersionsAndOrder(t *testing.T) {
	inner := extractors.NewLibrary(versioned{}, noop{})
	lib := wrapLibrary(inner, newProbe(), newOracle())
	if got, want := lib.Names(), inner.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	for _, name := range inner.Names() {
		a, _ := inner.Get(name)
		b, _ := lib.Get(name)
		if extractors.VersionOf(a) != extractors.VersionOf(b) {
			t.Errorf("%s: version %q, wrapped %q", name, extractors.VersionOf(a), extractors.VersionOf(b))
		}
	}
	fi := store.FileInfo{Path: "/x.dat", Name: "x.dat", Extension: "dat"}
	if got, want := lib.CandidatesFor(fi), inner.CandidatesFor(fi); !reflect.DeepEqual(got, want) {
		t.Errorf("candidates %v, want %v", got, want)
	}
}

func TestOracleFlagsChangedMetadata(t *testing.T) {
	o := newOracle()
	md, _ := noop{}.Extract(&family.Group{ID: "/d#f0"}, map[string][]byte{"/d/a": nil})
	o.record("/d#f0", "noop", md)
	good := []byte(`{"family":"s:/d#0","files":["/d/a"],"metadata":{"/d#f0/noop":{"files":1}},"path":"/d"}`)
	if steps, _ := o.checkDoc("good", good); steps != 1 || o.mismatches.Load() != 0 {
		t.Fatalf("good document: %d steps, %d mismatches (%s)", steps, o.mismatches.Load(), o.firstMismatch())
	}
	bad := []byte(`{"family":"s:/d#0","files":["/d/a"],"metadata":{"/d#f0/noop":{"files":2}},"path":"/d"}`)
	o.checkDoc("bad", bad)
	if o.mismatches.Load() != 1 {
		t.Fatal("changed metadata was not flagged")
	}
}
