// Package jsonw appends JSON exactly as encoding/json marshals it, with
// no reflection. Fuzz tests hold its users to encoding/json.
package jsonw

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// Object appends one JSON object's members in call order; keys are
// written verbatim. The first NaN or ±Inf float is kept in Err, and the
// caller discards B, as encoding/json writes nothing for such a value.
type Object struct {
	B   []byte
	Err error
}

// Open starts an object at the end of b; Close ends it.
func Open(b []byte) Object               { return Object{B: append(b, '{')} }
func (o *Object) Close() ([]byte, error) { return append(o.B, '}'), o.Err }

func (o *Object) key(k string) []byte {
	if o.B[len(o.B)-1] != '{' {
		o.B = append(o.B, ',')
	}
	return append(append(append(o.B, '"'), k...), '"', ':')
}

// String, Int, Uint, Bool and Float append one member each.
func (o *Object) String(k, v string)        { o.B = appendString(o.key(k), v) }
func (o *Object) Int(k string, v int)       { o.B = strconv.AppendInt(o.key(k), int64(v), 10) }
func (o *Object) Uint(k string, v uint64)   { o.B = strconv.AppendUint(o.key(k), v, 10) }
func (o *Object) Bool(k string, v bool)     { o.B = strconv.AppendBool(o.key(k), v) }
func (o *Object) Float(k string, v float64) { o.B = appendFloat(o.key(k), v, &o.Err) }

const hex = "0123456789abcdef"

// appendString appends s as encoding/json writes a string with HTML
// escaping: quote and backslash escaped, \b \t \n \f \r by letter, and
// other control bytes, <, >, &, U+2028, U+2029 and each invalid UTF-8
// byte as a \u escape (the last as \ufffd).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != 0x2028 && c != 0x2029 && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', byte(c))
		case c >= '\b' && c <= '\r' && c != '\v':
			b = append(b, '\\', "btn_fr"[c-'\b'])
		default:
			b = append(b, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form with e-09 shortened to e-9 when |v| < 1e-6
// or |v| ≥ 1e21. NaN and ±Inf append nothing and set *err if unset.
func appendFloat(b []byte, v float64, err *error) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return b
	}
	if abs := math.Abs(v); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, v, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		return append(b[:n-2], b[n-1]) // e-09 → e-9
	}
	return b
}
