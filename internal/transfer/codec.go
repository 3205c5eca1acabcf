package transfer

import (
	"time"

	"xtract/internal/fastjson"
)

// Hand-rolled codecs for the prefetch queue wire shapes, byte-identical
// to encoding/json on the same structs (pinned by codec_test.go). The
// staging path rides the same per-family hot loop as dispatch, so its
// queue bodies avoid reflection too.

// AppendPrefetchTask appends t as JSON, byte-identical to
// encoding/json.Marshal(t).
func AppendPrefetchTask(dst []byte, t *PrefetchTask) []byte {
	dst = append(dst, `{"family_id":`...)
	dst = fastjson.AppendString(dst, t.FamilyID)
	dst = append(dst, `,"src":`...)
	dst = fastjson.AppendString(dst, t.Src)
	dst = append(dst, `,"dst":`...)
	dst = fastjson.AppendString(dst, t.Dst)
	dst = append(dst, `,"pairs":`...)
	if t.Pairs == nil {
		return append(append(dst, "null"...), '}')
	}
	dst = append(dst, '[')
	for i := range t.Pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"src":`...)
		dst = fastjson.AppendString(dst, t.Pairs[i].Src)
		dst = append(dst, `,"dst":`...)
		dst = fastjson.AppendString(dst, t.Pairs[i].Dst)
		dst = append(dst, '}')
	}
	return append(append(dst, ']'), '}')
}

// DecodePrefetchTask parses data into t with encoding/json's struct
// semantics.
func DecodePrefetchTask(data []byte, t *PrefetchTask) error {
	d := fastjson.NewDec(data)
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "family_id"):
			if !d.Null() {
				t.FamilyID, err = d.Str()
			}
		case fastjson.FieldIs(key, "src"):
			if !d.Null() {
				t.Src, err = d.Str()
			}
		case fastjson.FieldIs(key, "dst"):
			if !d.Null() {
				t.Dst, err = d.Str()
			}
		case fastjson.FieldIs(key, "pairs"):
			if d.Null() {
				t.Pairs = nil // null zeroes a slice or map field
				break
			}
			t.Pairs = t.Pairs[:0]
			err = d.ArrEach(func() error {
				// Grow like encoding/json: slots within capacity keep their
				// prior contents (visible when a duplicate key re-decodes the
				// slice), fresh slots are zero.
				if len(t.Pairs) < cap(t.Pairs) {
					t.Pairs = t.Pairs[:len(t.Pairs)+1]
				} else {
					t.Pairs = append(t.Pairs, FilePair{})
				}
				return decodeFilePair(d, &t.Pairs[len(t.Pairs)-1])
			})
			if err == nil && t.Pairs == nil {
				// encoding/json turns an empty JSON array into a
				// non-nil empty slice.
				t.Pairs = []FilePair{}
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

func decodeFilePair(d *fastjson.Dec, fp *FilePair) error {
	if d.Null() {
		return nil
	}
	return d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "src"):
			if !d.Null() {
				fp.Src, err = d.Str()
			}
		case fastjson.FieldIs(key, "dst"):
			if !d.Null() {
				fp.Dst, err = d.Str()
			}
		default:
			err = d.Skip()
		}
		return err
	})
}

// AppendPrefetchResult appends r as JSON, byte-identical to
// encoding/json.Marshal(r).
func AppendPrefetchResult(dst []byte, r *PrefetchResult) []byte {
	dst = append(dst, `{"family_id":`...)
	dst = fastjson.AppendString(dst, r.FamilyID)
	dst = append(dst, `,"src":`...)
	dst = fastjson.AppendString(dst, r.Src)
	dst = append(dst, `,"dst":`...)
	dst = fastjson.AppendString(dst, r.Dst)
	if r.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = fastjson.AppendString(dst, r.Err)
	}
	dst = append(dst, `,"bytes":`...)
	dst = fastjson.AppendInt(dst, r.Bytes)
	dst = append(dst, `,"elapsed":`...)
	dst = fastjson.AppendInt(dst, int64(r.Elapsed))
	return append(dst, '}')
}

// DecodePrefetchResult parses data into r with encoding/json's struct
// semantics.
func DecodePrefetchResult(data []byte, r *PrefetchResult) error {
	d := fastjson.NewDec(data)
	if d.Null() {
		return d.End()
	}
	err := d.ObjEach(func(key []byte) error {
		var err error
		switch {
		case fastjson.FieldIs(key, "family_id"):
			if !d.Null() {
				r.FamilyID, err = d.Str()
			}
		case fastjson.FieldIs(key, "src"):
			if !d.Null() {
				r.Src, err = d.Str()
			}
		case fastjson.FieldIs(key, "dst"):
			if !d.Null() {
				r.Dst, err = d.Str()
			}
		case fastjson.FieldIs(key, "ok"):
			if !d.Null() {
				r.OK, err = d.Bool()
			}
		case fastjson.FieldIs(key, "err"):
			if !d.Null() {
				r.Err, err = d.Str()
			}
		case fastjson.FieldIs(key, "bytes"):
			if !d.Null() {
				r.Bytes, err = d.Int64()
			}
		case fastjson.FieldIs(key, "elapsed"):
			if !d.Null() {
				var ns int64
				ns, err = d.Int64()
				r.Elapsed = time.Duration(ns)
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
