package main

import (
	"strings"

	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/validate"
)

// The wrappers below implement the interfaces a deployment accepts and
// forward every call unchanged. With the probe on they also time the
// call and record a span; the extractor wrapper always feeds the
// correctness oracle.

func joinKey(site, dir string) string { return site + "\x00" + dir }

// sourceStore wraps a source site's data layer. Its name must equal the
// site's, so family stores and grouper keys agree.
type sourceStore struct {
	store.Store
	p *probe
}

func (s sourceStore) List(dir string) ([]store.FileInfo, error) {
	if !s.p.enabled() {
		return s.Store.List(dir)
	}
	start := s.p.now()
	infos, err := s.Store.List(dir)
	end := s.p.now()
	p := s.p
	p.mu.Lock()
	p.addLocked("store.list_calls", 1)
	p.addLocked("store.list_ms", float64(end-start)/1e6)
	p.listed[joinKey(s.Name(), dir)] = p.spanLocked("store.list", s.Name()+":"+dir, 0, start, end)
	p.crawlLocked(start, end)
	p.mu.Unlock()
	return infos, err
}

func (s sourceStore) Read(path string) ([]byte, error) {
	if !s.p.enabled() {
		return s.Store.Read(path)
	}
	start := s.p.now()
	data, err := s.Store.Read(path)
	end := s.p.now()
	p := s.p
	p.mu.Lock()
	p.addLocked("store.read_calls", 1)
	p.addLocked("store.read_bytes", float64(len(data)))
	p.addLocked("store.read_ms", float64(end-start)/1e6)
	p.spanLocked("store.read", s.Name()+":"+path, 0, start, end)
	p.mu.Unlock()
	return data, err
}

// wrapGrouper wraps one site's grouping function.
func wrapGrouper(p *probe, site string, g crawler.GroupingFunc) crawler.GroupingFunc {
	return func(dir string, files []store.FileInfo) []family.Group {
		if !p.enabled() {
			return g(dir, files)
		}
		start := p.now()
		groups := g(dir, files)
		end := p.now()
		key := joinKey(site, dir)
		p.mu.Lock()
		p.addLocked("crawler.group_calls", 1)
		p.addLocked("crawler.group_ms", float64(end-start)/1e6)
		id := p.spanLocked("crawler.group", site+":"+dir, p.listed[key], start, end)
		p.grouped[key] = stamp{at: end, span: id}
		p.crawlLocked(start, end)
		p.mu.Unlock()
		return groups
	}
}

// policy wraps the placement policy.
type policy struct {
	inner scheduler.Policy
	p     *probe
}

func (w policy) Name() string { return w.inner.Name() }

func (w policy) Place(fam *family.Family, home scheduler.SiteState, alternates []scheduler.SiteState) string {
	p := w.p
	if !p.enabled() {
		return w.inner.Place(fam, home, alternates)
	}
	start := p.now()
	site := w.inner.Place(fam, home, alternates)
	end := p.now()
	p.mu.Lock()
	p.addLocked("scheduler.place_calls", 1)
	p.sampleLocked("scheduler.place_us", float64(end-start)/1e3)
	g, ok := p.grouped[joinKey(fam.Store, fam.BasePath)]
	if ok {
		p.sampleLocked("core.intake_wait_ms", float64(start-g.at)/1e6)
	}
	id := p.spanLocked("scheduler.place", fam.ID, g.span, start, end)
	for _, grp := range fam.Groups {
		p.placed[grp.ID] = placement{stamp: stamp{at: end, span: id}, offHome: site != home.Name}
	}
	p.mu.Unlock()
	return site
}

// extractor wraps one extractor of the library.
type extractor struct {
	extractors.Extractor
	p *probe
	o *oracle
}

// versionedExtractor forwards extractors.Versioner, so the wrapper keeps
// the extractor's cache-key version.
type versionedExtractor struct {
	extractor
	v extractors.Versioner
}

func (e versionedExtractor) Version() string { return e.v.Version() }

func (e extractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	p := e.p
	if !p.enabled() {
		md, err := e.Extractor.Extract(g, files)
		if err == nil {
			e.o.record(g.ID, e.Name(), md)
		}
		return md, err
	}
	start := p.now()
	md, err := e.Extractor.Extract(g, files)
	end := p.now()
	if err == nil {
		e.o.record(g.ID, e.Name(), md)
	}
	p.mu.Lock()
	p.addLocked("extractors.calls", 1)
	p.addLocked("extractors.exec_ms", float64(end-start)/1e6)
	p.sampleLocked("extractors.exec_ms", float64(end-start)/1e6)
	pl, ok := p.placed[g.ID]
	if ok {
		wait := float64(start-pl.at) / 1e6
		if pl.offHome {
			p.sampleLocked("transfer.offload_wait_ms", wait)
		} else {
			p.sampleLocked("faas.dispatch_wait_ms", wait)
		}
	}
	p.spanLocked("extractors.extract", g.ID+"/"+e.Name(), pl.span, start, end)
	if end > p.extEnd[g.ID] {
		p.extEnd[g.ID] = end
	}
	p.mu.Unlock()
	return md, err
}

// wrapLibrary returns a library of wrapped extractors, in the same
// registration order (which decides initial plans).
func wrapLibrary(lib *extractors.Library, p *probe, o *oracle) *extractors.Library {
	out := extractors.NewLibrary()
	for _, name := range lib.Names() {
		inner, _ := lib.Get(name) // names come from the library itself
		w := extractor{Extractor: inner, p: p, o: o}
		if v, ok := inner.(extractors.Versioner); ok {
			out.Register(versionedExtractor{extractor: w, v: v})
		} else {
			out.Register(w)
		}
	}
	return out
}

// validator wraps the validation service's validator.
type validator struct {
	inner validate.Validator
	p     *probe
}

func (w validator) Name() string { return w.inner.Name() }

func (w validator) Validate(rec validate.Record) ([]byte, error) {
	p := w.p
	if !p.enabled() {
		return w.inner.Validate(rec)
	}
	start := p.now()
	doc, err := w.inner.Validate(rec)
	end := p.now()
	p.mu.Lock()
	p.addLocked("validate.calls", 1)
	p.addLocked("validate.ms", float64(end-start)/1e6)
	if err != nil {
		p.addLocked("validate.rejected", 1)
	}
	var last int64
	var parent uint64
	for key := range rec.Metadata {
		gid := key
		if i := strings.LastIndexByte(key, '/'); i >= 0 {
			gid = key[:i]
		}
		if t := p.extEnd[gid]; t > last {
			last = t
		}
		if pl, ok := p.placed[gid]; ok {
			parent = pl.span
		}
	}
	if last > 0 {
		p.sampleLocked("validate.result_wait_ms", float64(start-last)/1e6)
	}
	p.spanLocked("validate.validate", rec.FamilyID, parent, start, end)
	p.mu.Unlock()
	return doc, err
}

// journalDir wraps the journal's backing directory.
type journalDir struct {
	journal.Dir
	p *probe
}

func (d journalDir) Create(name string) (journal.File, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return journalFile{File: f, p: d.p}, nil
}

// journalFile wraps one journal segment.
type journalFile struct {
	journal.File
	p *probe
}

func (f journalFile) Write(b []byte) (int, error) {
	if f.p.enabled() {
		f.p.mu.Lock()
		f.p.addLocked("journal.writes", 1)
		f.p.addLocked("journal.bytes", float64(len(b)))
		f.p.mu.Unlock()
	}
	return f.File.Write(b)
}

func (f journalFile) Sync() error {
	p := f.p
	if !p.enabled() {
		return f.File.Sync()
	}
	start := p.now()
	err := f.File.Sync()
	end := p.now()
	p.mu.Lock()
	p.addLocked("journal.syncs", 1)
	p.sampleLocked("journal.sync_ms", float64(end-start)/1e6)
	p.spanLocked("journal.sync", "journal", 0, start, end)
	p.mu.Unlock()
	return err
}
