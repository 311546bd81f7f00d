// Package jsonw appends JSON exactly as encoding/json marshals it, with
// no reflection, and reads back what it appends. The reader is lenient:
// the writer is the only definition of the form, so a caller that must
// accept nothing else appends what it read again and requires the same
// bytes. Fuzz tests hold its users to encoding/json.
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

// Members reads back an object that Object appended, in the same call
// order: String, Int, Uint, Bool and Float each take the member with
// the given key, and Has peeks at the next member's key, for members
// the writer may omit. The read is lenient: it checks only what it
// needs to find each value, and at input it cannot read it stops, after
// which every method returns a zero value. A caller that needs the
// writer's exact form appends what it read again and compares bytes.
type Members struct {
	b     []byte // the unread rest of the input, nil once the read stopped
	first bool   // no member read yet
}

// Read starts reading the object at the head of b.
func Read(b []byte) Members {
	if len(b) == 0 || b[0] != '{' {
		return Members{}
	}
	return Members{b: b[1:], first: true}
}

// keyLen is the length of the separator and key k at the head of the
// input, or 0 when they are not there.
func (m *Members) keyLen(k string) int {
	i := 0
	if !m.first {
		i = 1
	}
	b := m.b
	if len(b) < i+len(k)+3 || !m.first && b[0] != ',' || b[i] != '"' ||
		string(b[i+1:i+1+len(k)]) != k || b[i+1+len(k)] != '"' || b[i+2+len(k)] != ':' {
		return 0
	}
	return i + len(k) + 3
}

// Has reports whether member k comes next.
func (m *Members) Has(k string) bool { return m.keyLen(k) > 0 }

// key consumes member k's key, or stops the read.
func (m *Members) key(k string) bool {
	n := m.keyLen(k)
	if n == 0 {
		m.b = nil
		return false
	}
	m.b, m.first = m.b[n:], false
	return true
}

// token consumes member k and returns its value's bytes, up to the next
// comma or closing brace.
func (m *Members) token(k string) []byte {
	if !m.key(k) {
		return nil
	}
	n := 0
	for n < len(m.b) && m.b[n] != ',' && m.b[n] != '}' {
		n++
	}
	tok := m.b[:n]
	m.b = m.b[n:]
	return tok
}

// Int and Uint read member k's decimal: each byte of the value counts
// as a digit and overflow wraps, so a token reads as its own value only
// where the writer would have written it. Bool and Float read what
// strconv reads, or false and zero.
func (m *Members) Int(k string) int {
	tok := m.token(k)
	if len(tok) > 0 && tok[0] == '-' {
		return -int(digits(tok[1:]))
	}
	return int(digits(tok))
}

func (m *Members) Uint(k string) uint64 { return digits(m.token(k)) }

func digits(tok []byte) uint64 {
	var v uint64
	for _, c := range tok {
		v = v*10 + uint64(c-'0')
	}
	return v
}

func (m *Members) Bool(k string) bool { return string(m.token(k)) == "true" }

func (m *Members) Float(k string) float64 {
	v, _ := strconv.ParseFloat(string(m.token(k)), 64)
	return v
}

// String reads member k's string: one allocation, or none for the empty
// string. Each \u escape stands for one rune, so a surrogate escape
// reads as U+FFFD.
func (m *Members) String(k string) string {
	if !m.key(k) || len(m.b) == 0 || m.b[0] != '"' {
		m.b = nil
		return ""
	}
	b := m.b[1:]
	buf := make([]byte, 0, 128)
	for {
		n := 0
		for n < len(b) && b[n] != '"' && b[n] != '\\' {
			n++
		}
		buf, b = append(buf, b[:n]...), b[n:]
		if len(b) == 0 {
			break
		}
		if b[0] == '"' {
			m.b = b[1:]
			return string(buf)
		}
		size := 0
		if buf, size = appendUnescaped(buf, b); size == 0 {
			break
		}
		b = b[size:]
	}
	m.b = nil
	return ""
}

// unescape maps the byte after a backslash to what its two-byte escape
// stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', 'b': '\b', 't': '\t', 'n': '\n', 'f': '\f', 'r': '\r'}

// appendUnescaped appends what the escape at the head of b stands for
// and returns the escape's length, or 0 for input that is no escape.
func appendUnescaped(buf, b []byte) ([]byte, int) {
	if len(b) < 2 {
		return buf, 0
	}
	if c := unescape[b[1]]; c != 0 {
		return append(buf, c), 2
	}
	if b[1] != 'u' || len(b) < 6 {
		return buf, 0
	}
	r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return buf, 0
	}
	return utf8.AppendRune(buf, rune(r)), 6
}
