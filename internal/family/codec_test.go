package family

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"xtract/internal/fastjson"
)

// familyCases spans the encoder surface: nil vs empty slices and maps,
// every FileMeta omitempty field, escaping torture, unicode, and group-
// and family-level metadata.
func familyCases() []Family {
	many := make(map[string]FileMeta)
	for i := 40; i > 0; i-- { // more keys than the sort's stack array
		many[fmt.Sprintf("/d/f%02d", i)] = FileMeta{Size: int64(i)}
	}
	return []Family{
		{},
		{ID: "f", Files: []string{}, Groups: []Group{},
			FileMeta: map[string]FileMeta{}, Metadata: map[string]interface{}{}},
		{ID: "petrel:/data/exp1#0", Files: []string{"/data/exp1/INCAR", "/data/exp1/POSCAR"},
			Groups: []Group{
				{ID: "g1", Files: []string{"/data/exp1/INCAR"}, Extractor: "matio"},
				{ID: "g2", Files: nil, Extractor: ""},
				{ID: "g3", Files: []string{}, Extractor: "keyword",
					Metadata: map[string]interface{}{}},
			},
			Store: "petrel", BasePath: "/data/exp1",
			FileMeta: map[string]FileMeta{
				"/data/exp1/POSCAR": {},
				"/data/exp1/INCAR":  {Size: 12, Extension: "INCAR"},
				"/data/exp1/z.txt":  {Size: -1, MimeType: "text/plain"},
				"/data/exp1/a.bin":  {ContentHash: "sha256:ab"},
				"/data/exp1/full":   {Size: 1 << 40, Extension: "txt", MimeType: "text/plain", ContentHash: "h"},
			}},
		{ID: `<&> "q" \ ` + "\u2028\u2029 \x01\x1f \xff\xfe 日本語",
			Files:    []string{"<a>", "b&c", "\u2028", "bad\xffutf8", "tab\tnl\n"},
			Store:    "st<o>re",
			BasePath: "/päth/\u2029",
			Groups: []Group{{ID: "<g>", Files: []string{"&"}, Extractor: "ex\u2028",
				Metadata: map[string]interface{}{
					"html": "<script>&</script>", "n": nil, "t": true,
					"nums": []interface{}{1.5, 0.0, -2e-7, 1e21, float64(42)},
				}}},
			FileMeta: map[string]FileMeta{"<k>": {Extension: "\xff"}, "\u2028": {MimeType: "a&b"}},
			Metadata: map[string]interface{}{
				"nested": map[string]interface{}{"z": "1", "a": []interface{}{}, "m": map[string]interface{}{}},
				"int":    7, "str": "v", "list": []string{"x", "y"},
			}},
		{ID: "many", FileMeta: many},
	}
}

func TestAppendJSONEquivalence(t *testing.T) {
	for i, f := range familyCases() {
		want, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendJSON(nil, &f)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nfast: %s\njson: %s", i, got, want)
		}
		// Appending keeps the prefix already in dst.
		got, _ = AppendJSON([]byte("prefix"), &f)
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("case %d: append clobbered the prefix: %s", i, got)
		}
	}
	// NaN metadata must fail, at either level, exactly as encoding/json
	// does.
	nan := map[string]interface{}{"x": math.NaN()}
	for _, bad := range []Family{
		{Metadata: nan},
		{Groups: []Group{{Metadata: nan}}},
	} {
		if _, err := json.Marshal(&bad); err == nil {
			t.Fatal("expected json to reject NaN")
		}
		if _, err := AppendJSON(nil, &bad); err == nil {
			t.Errorf("fast encoder accepted NaN metadata: %+v", bad)
		}
	}
}

func TestDecodeJSONEquivalence(t *testing.T) {
	docs := []string{
		`null`,
		`{}`,
		` { "id" : "f" , "files" : [ "a" ] } `,
		`{"id":"f","files":["/a","/b"],"groups":[{"id":"g","files":["/a"],"extractor":"e","metadata":{"k":[1,"s",null,true]}}],"store":"s","base_path":"/","file_meta":{"/a":{"size":3,"extension":"txt","mime_type":"text/plain","content_hash":"h"},"/b":{"size":-0}},"metadata":{"m":{"n":-2.5e-3}}}`,
		// Case-insensitive key fallback, at every level.
		`{"ID":"f","FILES":["a"],"Groups":[{"Id":"g","Files":["b"],"EXTRACTOR":"e","MetaData":{"a":1}}],"STORE":"s","Base_Path":"/p","FILE_META":{"a":{"SIZE":3,"Extension":"x","MIME_TYPE":"m","Content_Hash":"h"}},"METADATA":{"k":"v"}}`,
		// Null leaves strings and structs untouched and sets slices and
		// maps to nil; null array elements keep their slot; a null map
		// value stores the zero value.
		`{"id":null,"files":null,"groups":[null,{"id":"g","files":[null,"x"],"metadata":null}],"store":null,"base_path":null,"file_meta":{"a":null,"b":{"size":null,"extension":null}},"metadata":{"n":null}}`,
		`{"files":["a"],"files":null,"groups":[{"files":["x"],"files":null,"metadata":{"a":1},"metadata":null}],"file_meta":{"a":{}},"file_meta":null,"metadata":{"a":1},"metadata":null}`,
		`{"groups":[{"id":"g"}],"groups":null}`,
		// Unknown fields skipped, whatever their shape.
		`{"zzz":{"a":[1,2,{"b":null}]},"id":"x","groups":[{"q":true,"id":"g","w":[[]]}],"file_meta":{"f":{"unknown":"u","size":4}},"tail":-1e9}`,
		// Duplicate keys: struct fields take the last value, maps merge,
		// file_meta values are replaced whole, slices re-decode in place.
		`{"id":"a","id":"b","files":["x","y"],"files":[null],"file_meta":{"x":{"size":1,"extension":"e"}},"file_meta":{"y":{"size":2},"x":{"mime_type":"m"}},"metadata":{"a":1},"metadata":{"b":2,"a":3},"groups":[{"id":"g1","extractor":"e1","metadata":{"a":1}}],"groups":[{"files":["z"],"metadata":{"b":2}}]}`,
		// Empty arrays become non-nil empty slices.
		`{"files":[],"groups":[{"files":[]}],"file_meta":{},"metadata":{}}`,
		// Escapes, surrogate pairs and repaired invalid UTF-8.
		`{"id":"\u003c\u0026\u003e \ud83d\ude00 \u2028 \ud800","files":["\ufffd\\\"\/\b\f\n\r\t"],"file_meta":{"\u00e9":{"size":1}},"store":"` + "\xff" + `"}`,
	}
	for _, doc := range docs {
		var want Family
		werr := json.Unmarshal([]byte(doc), &want)
		var got Family
		gerr := DecodeJSON([]byte(doc), &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch json=%v fast=%v", doc, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfast: %#v\njson: %#v", doc, got, want)
		}
	}
	malformed := []string{
		``, `{`, `[]`, `"f"`, `5`, `{"id":}`, `{"id":5}`, `{"files":"x"}`,
		`{"files":[1]}`, `{"files":["a",]}`, `{"groups":{}}`, `{"groups":[5]}`,
		`{"groups":[{"metadata":[]}]}`, `{"file_meta":[]}`, `{"file_meta":{"a":5}}`,
		`{"file_meta":{"a":{"size":1.5}}}`, `{"file_meta":{"a":{"size":"1"}}}`,
		`{"file_meta":{"a":{"size":1e2}}}`, `{"file_meta":{"a":{"size":9223372036854775808}}}`,
		`{"metadata":[]}`, `{"metadata":{"x":1e999}}`, `{"store":true}`,
		`{} trailing`, `{"id":"x"}}`, `{"id":"x",}`, `{"id":"a` + "\x01" + `"}`,
	}
	for _, doc := range malformed {
		var want Family
		if err := json.Unmarshal([]byte(doc), &want); err == nil {
			t.Fatalf("expected json to reject %q", doc)
		}
		var got Family
		if err := DecodeJSON([]byte(doc), &got); err == nil {
			t.Errorf("fast decoder accepted %q", doc)
		}
	}
}

// TestFamilyCodecRoundTrip pins encode → decode as the identity the
// crawler → pump hop relies on, through one decoder reused across
// documents (as the pump's intake pass reuses it), and checks the decoded
// family shares no bytes with the message it came from.
func TestFamilyCodecRoundTrip(t *testing.T) {
	var d fastjson.Dec
	for i, f := range familyCases() {
		enc, err := AppendJSON(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		var want Family
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		d.Reset(enc)
		var back Family
		if err := DecodeFrom(&d, &back); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for j := range enc {
			enc[j] = 'X'
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("case %d round trip:\nfast: %#v\njson: %#v", i, back, want)
		}
	}
}

// FuzzFamilyDecodeParity holds the fast decoder to encoding/json's
// accept/reject behavior and decoded state on arbitrary input.
func FuzzFamilyDecodeParity(f *testing.F) {
	for _, fam := range familyCases() {
		if enc, err := json.Marshal(&fam); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte(`{"groups":[null],"GROUPS":[],"file_meta":{"a":null},"Metadata":{"x":[{}]}}`))
	f.Add([]byte(`{"files":["a","b"],"files":[null],"groups":[{"id":"g"}],"groups":[{"files":[]}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Family
		werr := json.Unmarshal(data, &want)
		var got Family
		gerr := DecodeJSON(data, &got)
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
