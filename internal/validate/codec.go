package validate

import (
	"time"

	"xtract/internal/fastjson"
)

// Hand-rolled codecs for the validation wire shapes. AppendRecord and
// DecodeRecord are byte/semantics-identical to encoding/json on Record
// (pinned by codec_test.go); the Xtract service encodes every finished
// family through AppendRecord into pooled scratch, and the validation
// service decodes with DecodeRecord, so the per-family result path
// carries no reflection.

// AppendRecord appends rec as JSON, byte-identical to
// encoding/json.Marshal(rec). The only error source is unencodable
// metadata values (NaN/Inf floats), which encoding/json rejects too.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, `{"job_id":`...)
	dst = fastjson.AppendString(dst, rec.JobID)
	dst = append(dst, `,"family_id":`...)
	dst = fastjson.AppendString(dst, rec.FamilyID)
	dst = append(dst, `,"store":`...)
	dst = fastjson.AppendString(dst, rec.Store)
	dst = append(dst, `,"base_path":`...)
	dst = fastjson.AppendString(dst, rec.BasePath)
	dst = append(dst, `,"files":`...)
	var err error
	if dst, err = fastjson.AppendValue(dst, rec.Files); err != nil {
		return dst, err
	}
	dst = append(dst, `,"metadata":`...)
	if dst, err = fastjson.AppendValue(dst, rec.Metadata); err != nil {
		return dst, err
	}
	dst = append(dst, `,"extracted":`...)
	if rec.Extracted == nil {
		return append(append(dst, "null"...), '}'), nil
	}
	dst = append(dst, '[')
	for i := range rec.Extracted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStepResult(dst, &rec.Extracted[i])
	}
	return append(append(dst, ']'), '}'), nil
}

func appendStepResult(dst []byte, sr *StepResult) []byte {
	dst = append(dst, `{"group_id":`...)
	dst = fastjson.AppendString(dst, sr.GroupID)
	dst = append(dst, `,"extractor":`...)
	dst = fastjson.AppendString(dst, sr.Extractor)
	if sr.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	if sr.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = fastjson.AppendString(dst, sr.Err)
	}
	dst = append(dst, `,"duration":`...)
	dst = fastjson.AppendInt(dst, int64(sr.Duration))
	if sr.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	return append(dst, '}')
}

// DecodeRecord parses data into rec with encoding/json's struct
// semantics: unknown fields skipped, null fields left untouched,
// case-insensitive key fallback, map members merged.
func DecodeRecord(data []byte, rec *Record) error {
	d := fastjson.NewDec(data)
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "job_id"):
			if !d.Null() {
				rec.JobID, err = d.Str()
			}
		case fastjson.FieldIs(key, "family_id"):
			if !d.Null() {
				rec.FamilyID, err = d.Str()
			}
		case fastjson.FieldIs(key, "store"):
			if !d.Null() {
				rec.Store, err = d.Str()
			}
		case fastjson.FieldIs(key, "base_path"):
			if !d.Null() {
				rec.BasePath, err = d.Str()
			}
		case fastjson.FieldIs(key, "files"):
			err = d.Strings(&rec.Files)
		case fastjson.FieldIs(key, "metadata"):
			if d.Null() {
				rec.Metadata = nil // null zeroes a slice or map field
				break
			}
			if rec.Metadata == nil {
				rec.Metadata = make(map[string]map[string]interface{}, 8)
			}
			err = d.ObjEach(func(k []byte) error {
				name := string(k)
				// Fresh inner map per occurrence: encoding/json zeroes the
				// map element before decoding, so duplicate outer keys
				// replace, never merge.
				var inner map[string]interface{}
				if e := d.ValueMap(&inner); e != nil {
					return e
				}
				rec.Metadata[name] = inner
				return nil
			})
		case fastjson.FieldIs(key, "extracted"):
			if d.Null() {
				rec.Extracted = nil // null zeroes a slice or map field
				break
			}
			rec.Extracted = rec.Extracted[:0]
			err = d.ArrEach(func() error {
				if len(rec.Extracted) < cap(rec.Extracted) {
					rec.Extracted = rec.Extracted[:len(rec.Extracted)+1]
				} else {
					rec.Extracted = append(rec.Extracted, StepResult{})
				}
				return decodeStepResult(d, &rec.Extracted[len(rec.Extracted)-1])
			})
			if err == nil && rec.Extracted == nil {
				rec.Extracted = []StepResult{}
			}
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

func decodeStepResult(d *fastjson.Dec, sr *StepResult) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "group_id"):
			if !d.Null() {
				sr.GroupID, err = d.Str()
			}
		case fastjson.FieldIs(key, "extractor"):
			if !d.Null() {
				sr.Extractor, err = d.Str()
			}
		case fastjson.FieldIs(key, "ok"):
			if !d.Null() {
				sr.OK, err = d.Bool()
			}
		case fastjson.FieldIs(key, "err"):
			if !d.Null() {
				sr.Err, err = d.Str()
			}
		case fastjson.FieldIs(key, "duration"):
			if !d.Null() {
				var ns int64
				ns, err = d.Int64()
				sr.Duration = time.Duration(ns)
			}
		case fastjson.FieldIs(key, "cached"):
			if !d.Null() {
				sr.Cached, err = d.Bool()
			}
		default:
			err = d.Skip()
		}
		return err
	})
}
