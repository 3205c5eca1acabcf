package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/store"
)

// oracle is the correctness check. The extractor wrapper records a
// digest of every metadata dictionary an extractor returns, keyed by
// "groupID/extractor" — the key the program files it under in the
// destination document. The destination store checks each document it
// receives against those digests, so a document passes only when every
// step it carries holds exactly what the extractor returned (or, for a
// cache-served step, what the cold run's extractor returned).
type oracle struct {
	seed maphash.Seed
	bufs sync.Pool

	mu   sync.Mutex
	want map[uint64]uint64

	mismatches atomic.Int64
	firstMu    sync.Mutex
	first      string
}

type encBuf struct {
	b   bytes.Buffer
	enc *json.Encoder
}

func newOracle() *oracle {
	o := &oracle{seed: maphash.MakeSeed(), want: make(map[uint64]uint64)}
	o.bufs.New = func() any {
		e := &encBuf{}
		e.enc = json.NewEncoder(&e.b)
		return e
	}
	return o
}

// fail records one mismatch.
func (o *oracle) fail(format string, args ...any) {
	if o.mismatches.Add(1) == 1 {
		o.firstMu.Lock()
		o.first = fmt.Sprintf(format, args...)
		o.firstMu.Unlock()
	}
}

func (o *oracle) firstMismatch() string {
	o.firstMu.Lock()
	defer o.firstMu.Unlock()
	return o.first
}

func (o *oracle) keyHash(gid, ext string) uint64 {
	var h maphash.Hash
	h.SetSeed(o.seed)
	h.WriteString(gid)
	h.WriteByte('/')
	h.WriteString(ext)
	return h.Sum64()
}

// record notes what one extractor call returned. The digest is over the
// encoding/json form of the dictionary, which the program's document
// encoder reproduces byte for byte after the metadata's round trip
// through the FaaS fabric.
func (o *oracle) record(gid, ext string, md map[string]interface{}) {
	e := o.bufs.Get().(*encBuf)
	e.b.Reset()
	err := e.enc.Encode(md)
	if err == nil && !native(md) {
		// Structs and other typed values reach the document as the
		// generic maps and float64s the fabric decodes them into.
		var generic interface{}
		if err = json.Unmarshal(e.b.Bytes(), &generic); err == nil {
			e.b.Reset()
			err = e.enc.Encode(generic)
		}
	}
	if err != nil {
		o.bufs.Put(e)
		o.fail("extractor %s on %s returned unencodable metadata: %v", ext, gid, err)
		return
	}
	v := maphash.Bytes(o.seed, bytes.TrimSuffix(e.b.Bytes(), []byte("\n")))
	o.bufs.Put(e)
	k := o.keyHash(gid, ext)
	o.mu.Lock()
	old, seen := o.want[k]
	o.want[k] = v
	o.mu.Unlock()
	if seen && old != v {
		o.fail("extractor %s returned different metadata for group %s on a repeat call", ext, gid)
	}
}

// release drops the recorded digests and their memory.
func (o *oracle) release() {
	o.mu.Lock()
	o.want = make(map[uint64]uint64)
	o.mu.Unlock()
}

// native reports whether v encodes exactly as its decoded generic form
// would (sorted maps of JSON-native values), so record can skip the
// round trip.
func native(v interface{}) bool {
	switch x := v.(type) {
	case nil, string, bool, float64, int, int64, []string, []float64, []int:
		return true
	case map[string]interface{}:
		for _, e := range x {
			if !native(e) {
				return false
			}
		}
		return true
	case []interface{}:
		for _, e := range x {
			if !native(e) {
				return false
			}
		}
		return true
	}
	return false
}

// forget drops every recorded digest (between bulk jobs).
func (o *oracle) forget() {
	o.mu.Lock()
	clear(o.want)
	o.mu.Unlock()
}

// checkDoc verifies a destination document's metadata block against the
// recorded extractor outputs. It returns how many steps the document
// carries and its digest. The digest covers every byte except the order
// of the "files" list: the program lists a family's files in map order,
// so that order differs between runs of the same content.
func (o *oracle) checkDoc(path string, doc []byte) (int, uint64) {
	var h maphash.Hash
	h.SetSeed(o.seed)
	steps := 0
	found := false
	err := eachMember(doc, func(key, val []byte) error {
		h.Write(key)
		h.WriteByte(0)
		if string(key) == "files" {
			var files []string
			if err := eachElem(val, func(e []byte) { files = append(files, string(e)) }); err != nil {
				return err
			}
			sort.Strings(files)
			for _, f := range files {
				h.WriteString(f)
				h.WriteByte(0)
			}
			return nil
		}
		h.Write(val)
		h.WriteByte(0)
		if string(key) != "metadata" {
			return nil
		}
		found = true
		return eachMember(val, func(k, v []byte) error {
			steps++
			kh := maphash.Bytes(o.seed, k)
			o.mu.Lock()
			want, ok := o.want[kh]
			o.mu.Unlock()
			switch {
			case !ok:
				return fmt.Errorf("step %s has no recorded extractor output", k)
			case want != maphash.Bytes(o.seed, v):
				return fmt.Errorf("step %s differs from what its extractor returned", k)
			}
			return nil
		})
	})
	if err == nil && !found {
		err = errors.New("no metadata block")
	}
	if err != nil {
		o.fail("document %s: %v", path, err)
	}
	return steps, h.Sum64()
}

// destStore is the destination endpoint. It keeps one digest per
// document instead of the document, so the heap figure measures the
// program rather than its output, and checks every write with the
// oracle: each family's document must arrive exactly once per bulk job,
// and a rewritten document (a repeated job, or a cache-served one) must
// be byte-identical to the first.
type destStore struct {
	o *oracle
	p *probe

	mu     sync.Mutex
	docs   map[string]docState
	gen    int64
	unique bool

	writes atomic.Int64
	steps  atomic.Int64
	times  []int64 // probe-clock ns of each write in the generation, under mu
}

type docState struct {
	digest uint64
	gen    int64
}

func newDestStore(o *oracle, p *probe) *destStore {
	return &destStore{o: o, p: p, docs: make(map[string]docState)}
}

// beginJob starts a new generation; with unique set, a second write of
// one document inside it is a mismatch (bulk jobs run one at a time).
func (d *destStore) beginJob(unique bool) {
	d.mu.Lock()
	d.gen++
	d.unique = unique
	d.times = d.times[:0]
	d.mu.Unlock()
	d.writes.Store(0)
	d.steps.Store(0)
}

// await waits until n documents of the current generation have
// arrived, reporting a mismatch if they do not within the timeout.
func (d *destStore) await(n int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for d.writes.Load() < n {
		if time.Now().After(deadline) {
			d.o.fail("%d of %d documents arrived within %v", d.writes.Load(), n, timeout)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// release forgets every document digest and their memory.
func (d *destStore) release() {
	d.mu.Lock()
	d.docs = make(map[string]docState)
	d.mu.Unlock()
}

func (d *destStore) Name() string { return "metadata-dest" }

func (d *destStore) Write(path string, data []byte) error {
	start := d.p.now()
	steps, digest := d.o.checkDoc(path, data)
	d.steps.Add(int64(steps))
	d.mu.Lock()
	old, seen := d.docs[path]
	d.docs[path] = docState{digest: digest, gen: d.gen}
	unique := d.unique
	gen := d.gen
	end := d.p.now()
	d.times = append(d.times, end)
	d.mu.Unlock()
	switch {
	case seen && old.digest != digest:
		d.o.fail("document %s changed on rewrite of unchanged content", path)
	case seen && unique && old.gen == gen:
		d.o.fail("document %s written twice in one job", path)
	}
	if d.p.enabled() {
		d.p.mu.Lock()
		d.p.addLocked("validate.dest_write_ms", float64(end-start)/1e6)
		d.p.spanLocked("validate.dest_write", path, 0, start, end)
		d.p.mu.Unlock()
	}
	d.writes.Add(1)
	return nil
}

// arrivals returns the generation's write times, in order.
func (d *destStore) arrivals() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]int64(nil), d.times...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *destStore) List(string) ([]store.FileInfo, error) { return nil, nil }
func (d *destStore) Read(string) ([]byte, error)           { return nil, store.ErrNotFound }
func (d *destStore) Stat(string) (store.FileInfo, error)   { return store.FileInfo{}, store.ErrNotFound }
func (d *destStore) Delete(string) error                   { return nil }

// eachMember calls fn with the raw key (without quotes, unescaped bytes
// as written) and raw value of every member of the JSON object in b.
func eachMember(b []byte, fn func(key, val []byte) error) error {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errors.New("not a JSON object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return errors.New("bad object key")
		}
		kend, err := skipString(b, i)
		if err != nil {
			return err
		}
		key := b[i+1 : kend-1]
		i = skipSpace(b, kend)
		if i >= len(b) || b[i] != ':' {
			return errors.New("missing colon")
		}
		i = skipSpace(b, i+1)
		vend, err := skipValue(b, i)
		if err != nil {
			return err
		}
		if err := fn(key, b[i:vend]); err != nil {
			return err
		}
		i = skipSpace(b, vend)
		if i >= len(b) {
			return errors.New("unterminated object")
		}
		if b[i] == '}' {
			return nil
		}
		if b[i] != ',' {
			return errors.New("missing comma")
		}
		i = skipSpace(b, i+1)
	}
}

// eachElem calls fn with the raw bytes of every element of the JSON
// array in b.
func eachElem(b []byte, fn func(elem []byte)) error {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '[' {
		return errors.New("not a JSON array")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return nil
	}
	for {
		end, err := skipValue(b, i)
		if err != nil {
			return err
		}
		fn(b[i:end])
		i = skipSpace(b, end)
		if i >= len(b) {
			return errors.New("unterminated array")
		}
		if b[i] == ']' {
			return nil
		}
		if b[i] != ',' {
			return errors.New("missing comma")
		}
		i = skipSpace(b, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i].
func skipString(b []byte, i int) (int, error) {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1, nil
		}
	}
	return 0, errors.New("unterminated string")
}

// skipValue returns the index just past the JSON value starting at b[i].
func skipValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, errors.New("missing value")
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end, err := skipString(b, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, errors.New("unterminated container")
	default:
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' && b[j] != ' ' && b[j] != '\n' {
			j++
		}
		if j == i {
			return 0, errors.New("bad literal")
		}
		return j, nil
	}
}
