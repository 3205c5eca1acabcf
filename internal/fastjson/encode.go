// Package fastjson is the hot-path JSON codec: append-style encoders and
// a pull decoder that replace reflection-driven encoding/json on the
// per-task critical path (dispatch payloads, FaaS handler bodies,
// validation records, journal metadata). Every encoder is byte-identical
// to encoding/json.Marshal for the inputs the pipeline produces -- same
// HTML escaping, same float format, same sorted map keys -- and a fuzz +
// table suite pins the equivalence. The decoder accepts exactly the JSON
// grammar encoding/json accepts (strict numbers, UTF-8 repair, surrogate
// pairs, a nesting-depth bound) and produces the same generic values
// (float64 numbers, map[string]interface{} objects).
//
// Encoders append into caller-owned buffers, so the pipeline can reuse
// pooled scratch across tasks: the alloc-free discipline the perf gate's
// allocs/task ceiling enforces.
package fastjson

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// maxPooledBuf caps the capacity of recycled encode scratch: one giant
// document must not pin its buffer in the pool forever.
const maxPooledBuf = 1 << 18

// bufPool recycles encode scratch for the hot-path codecs: task payloads,
// validation records, crawled families.
var bufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// GetBuf hands out empty pooled encode scratch. Its bytes may be passed
// only to consumers that copy them before returning (queue.Send and
// SendBatch, faas.SubmitBatch); PutBuf may be called only after that
// hand-off, and after it the bytes belong to the next GetBuf caller, so
// the releaser must never read or retain them again.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns scratch from GetBuf to the pool; see GetBuf for the
// ownership rule.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json.Marshal(s): the default HTML-safe escaping ('<', '>',
// '&' as <, >, &), two-character escapes for backslash,
// quote, \b, \f, \n, \r, \t, \u00xx for remaining control bytes, the literal
// six-byte escape \ufffd for invalid UTF-8, and U+2028/U+2029 escaped
// for JS embedding.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes plus the HTML specials <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f in encoding/json's float64 format: %f for
// magnitudes in [1e-6, 1e21), exponent form otherwise, with the e-0X
// exponent abbreviated to e-X. NaN and infinities are unsupported, as in
// encoding/json.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("fastjson: unsupported float value %g", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendInt appends i in decimal.
func AppendInt(dst []byte, i int64) []byte { return strconv.AppendInt(dst, i, 10) }

// AppendValue appends v's JSON encoding, byte-identical to
// encoding/json.Marshal(v). The dynamic kinds the extraction pipeline
// produces (decoded JSON values, extractor metadata) are encoded without
// reflection; anything else falls back to encoding/json, which keeps the
// byte equivalence by construction. Map keys are sorted, as encoding/json
// does.
func AppendValue(dst []byte, v interface{}) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		if x {
			return append(dst, "true"...), nil
		}
		return append(dst, "false"...), nil
	case string:
		return AppendString(dst, x), nil
	case float64:
		return AppendFloat(dst, x)
	case int:
		return AppendInt(dst, int64(x)), nil
	case int64:
		return AppendInt(dst, x), nil
	case int32:
		return AppendInt(dst, int64(x)), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case map[string]interface{}:
		return appendMap(dst, x)
	case []interface{}:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		var err error
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = AppendValue(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case map[string]string:
		if x == nil {
			return append(dst, "null"...), nil
		}
		return AppendStringMap(dst, x), nil
	case []string:
		return AppendStrings(dst, x), nil
	case map[string]map[string]interface{}:
		return appendNestedMap(dst, x)
	default:
		// Rare kinds (json.Number, typed structs, ...) keep exact
		// encoding/json bytes by delegating to it.
		blob, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		return append(dst, blob...), nil
	}
}

// appendMap encodes a generic object with sorted keys.
func appendMap(dst []byte, m map[string]interface{}) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	keys := sortedKeys(m)
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		if dst, err = AppendValue(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendNestedMap encodes the validate.Record metadata shape
// (map[string]map[string]interface{}) with both levels' keys sorted.
func appendNestedMap(dst []byte, m map[string]map[string]interface{}) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		if dst, err = appendMap(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendStrings appends a []string array, byte-identical to
// encoding/json: a nil slice is null.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendStringMap appends a map[string]string object with sorted keys,
// byte-identical to encoding/json. The caller has checked for nil.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = AppendString(dst, m[k])
	}
	return append(dst, '}')
}

func sortedKeys(m map[string]interface{}) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
