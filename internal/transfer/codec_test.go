package transfer

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestAppendPrefetchTaskEquivalence(t *testing.T) {
	cases := []PrefetchTask{
		{},
		{FamilyID: "f", Src: "petrel", Dst: "theta", Pairs: []FilePair{}},
		{FamilyID: "f#1", Src: "s", Dst: "d", Pairs: []FilePair{
			{Src: "/data/a.h5", Dst: "/stage/a.h5"},
			{Src: `we"ird\`, Dst: "päth<&>\t"},
		}},
	}
	for i, task := range cases {
		want, err := json.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendPrefetchTask(nil, &task)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
}

func TestAppendPrefetchResultEquivalence(t *testing.T) {
	cases := []PrefetchResult{
		{},
		{FamilyID: "f", Src: "s", Dst: "d", OK: true, Bytes: 1 << 30,
			Elapsed: 1500 * time.Millisecond},
		{FamilyID: "f", Src: "s", Dst: "d", Err: "globus: rate limited\n",
			Bytes: -1, Elapsed: -time.Second},
	}
	for i, res := range cases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendPrefetchResult(nil, &res)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
}

func TestDecodePrefetchEquivalence(t *testing.T) {
	taskDocs := []string{
		`null`,
		`{}`,
		`{"family_id":"f","src":"s","dst":"d","pairs":[{"src":"a","dst":"b"},null]}`,
		`{"FAMILY_ID":"f","SRC":"s","PAIRS":[{"SRC":"a","DST":"b"}],"unknown":{"x":[1]}}`,
		`{"pairs":[],"src":null}`,
		`{"pairs":[{"src":"a","dst":"b"}],"pairs":[{"dst":"kept"}]}`,
		// Null zeroes a slice field.
		`{"pairs":[{"src":"a"}],"pairs":null}`,
	}
	for _, doc := range taskDocs {
		var want, got PrefetchTask
		werr := json.Unmarshal([]byte(doc), &want)
		gerr := DecodePrefetchTask([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
		}
	}
	resDocs := []string{
		`{}`,
		`{"family_id":"f","ok":true,"bytes":9007199254740993,"elapsed":1500000000}`,
		`{"err":"x","bytes":-5,"elapsed":null}`,
		`{"BYTES":12,"Elapsed":7}`,
	}
	for _, doc := range resDocs {
		var want, got PrefetchResult
		werr := json.Unmarshal([]byte(doc), &want)
		gerr := DecodePrefetchResult([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
		}
	}
	malformed := []string{``, `{`, `{"bytes":1.5}`, `{"elapsed":1e2}`, `{} x`}
	for _, doc := range malformed {
		var jt PrefetchResult
		if err := json.Unmarshal([]byte(doc), &jt); err == nil {
			t.Fatalf("expected json to reject %q", doc)
		}
		var gt PrefetchResult
		if err := DecodePrefetchResult([]byte(doc), &gt); err == nil {
			t.Errorf("fast decoder accepted %q", doc)
		}
	}
}

func FuzzPrefetchTaskDecodeParity(f *testing.F) {
	f.Add([]byte(`{"family_id":"f","src":"s","dst":"d","pairs":[{"src":"a","dst":"b"}]}`))
	f.Add([]byte(`{"pairs":[null],"PAIRS":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got PrefetchTask
		werr := json.Unmarshal(data, &want)
		gerr := DecodePrefetchTask(data, &got)
		if werr == nil {
			if gerr != nil {
				t.Fatalf("json accepted, fast rejected %q: %v", data, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("state divergence on %q:\nfast: %#v\njson: %#v", data, got, want)
			}
		} else if gerr == nil {
			t.Fatalf("json rejected (%v), fast accepted %q", werr, data)
		}
	})
}

func FuzzPrefetchResultDecodeParity(f *testing.F) {
	f.Add([]byte(`{"family_id":"f","ok":true,"err":"e","bytes":123,"elapsed":-9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got PrefetchResult
		werr := json.Unmarshal(data, &want)
		gerr := DecodePrefetchResult(data, &got)
		if werr == nil {
			if gerr != nil {
				t.Fatalf("json accepted, fast rejected %q: %v", data, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("state divergence on %q:\nfast: %#v\njson: %#v", data, got, want)
			}
		} else if gerr == nil {
			t.Fatalf("json rejected (%v), fast accepted %q", werr, data)
		}
	})
}
