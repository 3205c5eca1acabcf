package family

import (
	"slices"

	"xtract/internal/fastjson"
)

// Hand-rolled codec for the crawler → pump family hop, byte-identical to
// encoding/json on Family (pinned by codec_test.go). Every crawled family
// is encoded once by the crawler and decoded once by the pump's intake,
// so both ends sit on the per-family path.

// AppendJSON appends f's JSON encoding to dst, byte-identical to
// json.Marshal(f): omitempty fields, sorted file_meta and metadata keys,
// HTML-safe string escaping. The only error source is unencodable
// metadata (NaN/Inf floats, values json.Marshal rejects).
func AppendJSON(dst []byte, f *Family) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = fastjson.AppendString(dst, f.ID)
	dst = append(dst, `,"files":`...)
	dst = fastjson.AppendStrings(dst, f.Files)
	dst = append(dst, `,"groups":`...)
	var err error
	if f.Groups == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range f.Groups {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendGroup(dst, &f.Groups[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if f.Store != "" {
		dst = append(dst, `,"store":`...)
		dst = fastjson.AppendString(dst, f.Store)
	}
	if f.BasePath != "" {
		dst = append(dst, `,"base_path":`...)
		dst = fastjson.AppendString(dst, f.BasePath)
	}
	if len(f.FileMeta) > 0 {
		dst = append(dst, `,"file_meta":`...)
		dst = appendFileMetaMap(dst, f.FileMeta)
	}
	if len(f.Metadata) > 0 {
		dst = append(dst, `,"metadata":`...)
		if dst, err = fastjson.AppendValue(dst, f.Metadata); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendGroup(dst []byte, g *Group) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = fastjson.AppendString(dst, g.ID)
	dst = append(dst, `,"files":`...)
	dst = fastjson.AppendStrings(dst, g.Files)
	dst = append(dst, `,"extractor":`...)
	dst = fastjson.AppendString(dst, g.Extractor)
	if len(g.Metadata) > 0 {
		dst = append(dst, `,"metadata":`...)
		var err error
		if dst, err = fastjson.AppendValue(dst, g.Metadata); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendFileMetaMap encodes a non-empty file_meta map with its keys
// sorted, as encoding/json does. Families from the crawler hold a
// directory's worth of files at most, so the keys usually sort in a
// stack array.
func appendFileMetaMap(dst []byte, m map[string]FileMeta) []byte {
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = fastjson.AppendString(dst, k)
		dst = append(dst, ':')
		fm := m[k]
		dst = appendFileMeta(dst, &fm)
	}
	return append(dst, '}')
}

func appendFileMeta(dst []byte, fm *FileMeta) []byte {
	dst = append(dst, `{"size":`...)
	dst = fastjson.AppendInt(dst, fm.Size)
	if fm.Extension != "" {
		dst = append(dst, `,"extension":`...)
		dst = fastjson.AppendString(dst, fm.Extension)
	}
	if fm.MimeType != "" {
		dst = append(dst, `,"mime_type":`...)
		dst = fastjson.AppendString(dst, fm.MimeType)
	}
	if fm.ContentHash != "" {
		dst = append(dst, `,"content_hash":`...)
		dst = fastjson.AppendString(dst, fm.ContentHash)
	}
	return append(dst, '}')
}

// DecodeJSON parses data into f with encoding/json's struct semantics:
// unknown fields skipped, null leaves a string, number or struct
// untouched and sets a slice or map to nil, case-insensitive key
// fallback, duplicate map keys merged, slices re-decoded in place, and an
// empty array decoded as a non-nil empty slice.
func DecodeJSON(data []byte, f *Family) error {
	return DecodeFrom(fastjson.NewDec(data), f)
}

// DecodeFrom is DecodeJSON over a caller-owned decoder already Reset to
// the document, so a loop over many messages reuses one decoder's
// scratch. f never aliases the document's bytes.
func DecodeFrom(d *fastjson.Dec, f *Family) error {
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "id"):
			if !d.Null() {
				f.ID, err = d.Str()
			}
		case fastjson.FieldIs(key, "files"):
			err = d.Strings(&f.Files)
		case fastjson.FieldIs(key, "groups"):
			if d.Null() {
				f.Groups = nil
				break
			}
			f.Groups = f.Groups[:0]
			err = d.ArrEach(func() error {
				// Grow like encoding/json: slots within capacity keep their
				// prior contents, fresh slots are zero.
				if len(f.Groups) < cap(f.Groups) {
					f.Groups = f.Groups[:len(f.Groups)+1]
				} else {
					f.Groups = append(f.Groups, Group{})
				}
				return decodeGroup(d, &f.Groups[len(f.Groups)-1])
			})
			if err == nil && f.Groups == nil {
				f.Groups = []Group{}
			}
		case fastjson.FieldIs(key, "store"):
			if !d.Null() {
				f.Store, err = d.Str()
			}
		case fastjson.FieldIs(key, "base_path"):
			if !d.Null() {
				f.BasePath, err = d.Str()
			}
		case fastjson.FieldIs(key, "file_meta"):
			if d.Null() {
				f.FileMeta = nil
				break
			}
			if f.FileMeta == nil {
				f.FileMeta = make(map[string]FileMeta)
			}
			err = d.ObjEach(func(k []byte) error {
				name := string(k)
				// Each map value decodes into a fresh zero struct; null
				// stores the zero value.
				var fm FileMeta
				if e := decodeFileMeta(d, &fm); e != nil {
					return e
				}
				f.FileMeta[name] = fm
				return nil
			})
		case fastjson.FieldIs(key, "metadata"):
			err = d.ValueMap(&f.Metadata)
		default:
			err = d.Skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.End()
}

func decodeGroup(d *fastjson.Dec, g *Group) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "id"):
			if !d.Null() {
				g.ID, err = d.Str()
			}
		case fastjson.FieldIs(key, "files"):
			err = d.Strings(&g.Files)
		case fastjson.FieldIs(key, "extractor"):
			if !d.Null() {
				g.Extractor, err = d.Str()
			}
		case fastjson.FieldIs(key, "metadata"):
			err = d.ValueMap(&g.Metadata)
		default:
			err = d.Skip()
		}
		return err
	})
}

func decodeFileMeta(d *fastjson.Dec, fm *FileMeta) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "size"):
			if !d.Null() {
				fm.Size, err = d.Int64()
			}
		case fastjson.FieldIs(key, "extension"):
			if !d.Null() {
				fm.Extension, err = d.Str()
			}
		case fastjson.FieldIs(key, "mime_type"):
			if !d.Null() {
				fm.MimeType, err = d.Str()
			}
		case fastjson.FieldIs(key, "content_hash"):
			if !d.Null() {
				fm.ContentHash, err = d.Str()
			}
		default:
			err = d.Skip()
		}
		return err
	})
}
