package validate

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

func recordCases() []Record {
	return []Record{
		{},
		{JobID: "j", FamilyID: "f", Store: "local", BasePath: "/data",
			Files: []string{}, Metadata: map[string]map[string]interface{}{},
			Extracted: []StepResult{}},
		{JobID: "j1", FamilyID: "s:/p#0", Store: "petrel", BasePath: "/x/<&>",
			Files: []string{"/x/a.csv", "/x/b.csv", "uni\u2028code"},
			Metadata: map[string]map[string]interface{}{
				"g0/keyword": {"terms": []interface{}{"a", "b"}, "score": 0.25},
				"g0/tabular": {"rows": float64(10), "null_cells": nil},
				"g1/nil":     nil,
			},
			Extracted: []StepResult{
				{GroupID: "g0", Extractor: "keyword", OK: true, Duration: 1500 * time.Microsecond},
				{GroupID: "g0", Extractor: "tabular", OK: true, Cached: true, Duration: 0},
				{GroupID: "g1", Extractor: "matio", Err: "boom\t\"quoted\"", Duration: -time.Second},
			}},
	}
}

func TestAppendRecordEquivalence(t *testing.T) {
	for i, rec := range recordCases() {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
	}
	// NaN metadata must fail, exactly as encoding/json does.
	bad := Record{Metadata: map[string]map[string]interface{}{
		"g/x": {"v": math.Inf(1)}}}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("expected json to reject Inf")
	}
	if _, err := AppendRecord(nil, &bad); err == nil {
		t.Error("fast encoder accepted Inf metadata")
	}
}

func TestDecodeRecordEquivalence(t *testing.T) {
	docs := []string{
		`null`,
		`{}`,
		`{"job_id":"j","family_id":"f","store":"s","base_path":"/p","files":["a",null,"b"],"metadata":{"g/x":{"k":1,"arr":[true,null]}},"extracted":[{"group_id":"g","extractor":"x","ok":true,"duration":1000,"cached":true}]}`,
		// Case-insensitive fallback and unknown fields.
		`{"JOB_ID":"j","Family_Id":"f","FILES":["x"],"METADATA":{"m":{"a":"b"}},"extra":[{"deep":null}]}`,
		// Duplicate outer metadata keys replace (fresh inner map), inner
		// keys within one object merge last-wins.
		`{"metadata":{"g":{"a":"1","a":"2"},"g":{"b":"3"}}}`,
		// Null metadata members and empty containers.
		`{"metadata":{"gone":null},"files":[],"extracted":[null]}`,
		// Duplicate slice keys re-decode in place.
		`{"files":["a","b"],"files":[null],"extracted":[{"ok":true}],"extracted":[{"err":"e"}]}`,
		// Null zeroes slice and map fields.
		`{"files":["a"],"files":null,"metadata":{"g":{}},"metadata":null,"extracted":[{}],"extracted":null}`,
	}
	for _, doc := range docs {
		var want, got Record
		werr := json.Unmarshal([]byte(doc), &want)
		gerr := DecodeRecord([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
		}
	}
	malformed := []string{``, `{"duration":}`, `{"extracted":[{"duration":0.5}]}`, `[]`}
	for _, doc := range malformed {
		var jr Record
		if err := json.Unmarshal([]byte(doc), &jr); err == nil {
			t.Fatalf("expected json to reject %q", doc)
		}
		var gr Record
		if err := DecodeRecord([]byte(doc), &gr); err == nil {
			t.Errorf("fast decoder accepted %q", doc)
		}
	}
}

// TestRecordCodecRoundTrip pins AppendRecord→DecodeRecord as the
// identity the result queue relies on between the Xtract service and
// the validation service.
func TestRecordCodecRoundTrip(t *testing.T) {
	for i, rec := range recordCases() {
		enc, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		var back, want Record
		if err := DecodeRecord(enc, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("case %d round trip:\nfast: %#v\njson: %#v", i, back, want)
		}
	}
}

// TestPassthroughDocMatchesMapMarshal pins the hand-built passthrough
// document to json.Marshal of the map form it replaced.
func TestPassthroughDocMatchesMapMarshal(t *testing.T) {
	for _, rec := range recordCases()[1:] {
		if rec.FamilyID == "" {
			rec.FamilyID = "f"
		}
		doc, err := Passthrough{}.Validate(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(map[string]interface{}{
			"schema":   "passthrough/v1",
			"family":   rec.FamilyID,
			"store":    rec.Store,
			"path":     rec.BasePath,
			"files":    rec.Files,
			"metadata": rec.Metadata,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, want) {
			t.Errorf("passthrough divergence:\nfast: %s\njson: %s", doc, want)
		}
	}
}

// TestMDFDocMatchesMapMarshal pins the hand-built MDF document to
// json.Marshal of the map form it replaced.
func TestMDFDocMatchesMapMarshal(t *testing.T) {
	rec := recordCases()[2]
	m := NewMDF("src-repo")
	doc, err := m.Validate(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(map[string]interface{}{
		"mdf": map[string]interface{}{
			"resource_type": "record",
			"schema":        "mdf.nulls",
			"scroll_id":     rec.FamilyID,
			"source_name":   "src-repo",
		},
		"origin": map[string]interface{}{
			"store": rec.Store,
			"path":  rec.BasePath,
		},
		"files":      rec.Files,
		"metadata":   rec.Metadata,
		"extractors": []string{"keyword", "nil", "tabular"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Errorf("mdf divergence:\nfast: %s\njson: %s", doc, want)
	}
}

func FuzzRecordDecodeParity(f *testing.F) {
	f.Add([]byte(`{"job_id":"j","family_id":"f","files":["a"],"metadata":{"g/x":{"k":[1,{"n":null}]}},"extracted":[{"group_id":"g","ok":true,"duration":5}]}`))
	f.Add([]byte(`{"metadata":{"g":null,"g":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got Record
		werr := json.Unmarshal(data, &want)
		gerr := DecodeRecord(data, &got)
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
