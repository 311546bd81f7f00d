// Package jsonw appends JSON exactly as encoding/json marshals it, with
// no reflection, and reads back exactly what it appends. Fuzz tests hold
// its users to encoding/json.
package jsonw

import (
	"encoding/json"
	"fmt"
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

// Members reads back one object that Object appended, in the same call
// order: String, Int, Uint, Bool and Float each take the member with
// the given key and accept only the bytes Object would have written for
// it. Has peeks at the next member's key, for members the writer may
// omit. The first mismatch fails the read, after which every method
// returns a zero value, and Close reports the mismatch's byte offset.
type Members struct {
	b     []byte // the unread rest of the input
	n     int    // the input's length
	first bool   // no member read yet
	at    int    // offset of the first mismatch, or -1
}

// Read starts reading the object that makes up all of b.
func Read(b []byte) Members {
	m := Members{b: b, n: len(b), first: true, at: -1}
	if len(b) == 0 || b[0] != '{' {
		m.Fail()
	} else {
		m.b = b[1:]
	}
	return m
}

// Fail fails the read at the current offset, for a member the reader
// accepted but the writer would not have written.
func (m *Members) Fail() {
	if m.at < 0 {
		m.at = m.n - len(m.b)
	}
	m.b = nil
}

// Close ends the object; it fails unless "}" ends the input.
func (m *Members) Close() error {
	if len(m.b) != 1 || m.b[0] != '}' {
		m.Fail()
	}
	if m.at >= 0 {
		return fmt.Errorf("jsonw: unexpected input at byte %d", m.at)
	}
	return nil
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

// key consumes member k's key, or fails the read.
func (m *Members) key(k string) bool {
	n := m.keyLen(k)
	if n == 0 {
		m.Fail()
		return false
	}
	m.b, m.first = m.b[n:], false
	return true
}

// String reads member k's string as appendString wrote it: one
// allocation, or none for the empty string.
func (m *Members) String(k string) string {
	if !m.key(k) || len(m.b) == 0 || m.b[0] != '"' {
		m.Fail()
		return ""
	}
	m.b = m.b[1:]
	buf := make([]byte, 0, 128)
	for {
		n, ok := rawRun(m.b)
		buf, m.b = append(buf, m.b[:n]...), m.b[n:]
		if !ok || len(m.b) == 0 {
			break
		}
		if m.b[0] == '"' {
			m.b = m.b[1:]
			return string(buf)
		}
		size := 0
		if buf, size = appendUnescaped(buf, m.b); size == 0 {
			break
		}
		m.b = m.b[size:]
	}
	m.Fail()
	return ""
}

// rawRun is the length of the run at the head of b that appendString
// copies unescaped, up to a quote, a backslash or the end of b; ok is
// false when the run ends at a byte appendString would have escaped.
func rawRun(b []byte) (n int, ok bool) {
	for n < len(b) {
		c := b[n]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(b[n:])
			if r == utf8.RuneError && size == 1 || r == 0x2028 || r == 0x2029 {
				return n, false
			}
			n += size
			continue
		}
		if c == '"' || c == '\\' {
			return n, true
		}
		if c < ' ' || c == '<' || c == '>' || c == '&' {
			return n, false
		}
		n++
	}
	return n, true
}

// unescape maps the byte after a backslash to what its two-byte escape
// stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', 'b': '\b', 't': '\t', 'n': '\n', 'f': '\f', 'r': '\r'}

// appendUnescaped appends what the escape at the head of b stands for
// and returns the escape's length, or 0 for an escape appendString does
// not write: it writes \u only in lowercase, and only for control bytes
// without a letter escape, <, >, &, U+2028, U+2029 and U+FFFD.
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
	var r rune
	for _, h := range b[2:6] {
		switch {
		case '0' <= h && h <= '9':
			r = r<<4 | rune(h-'0')
		case 'a' <= h && h <= 'f':
			r = r<<4 | rune(h-'a'+10)
		default:
			return buf, 0
		}
	}
	if r < ' ' && (r < '\b' || r > '\r' || r == '\v') || r == '<' || r == '>' || r == '&' ||
		r == 0x2028 || r == 0x2029 || r == utf8.RuneError {
		return utf8.AppendRune(buf, r), 6
	}
	return buf, 0
}

// digits reads a decimal without a redundant leading zero whose value
// is at most max.
func (m *Members) digits(max uint64) uint64 {
	var v uint64
	n := 0
	for ; n < len(m.b) && '0' <= m.b[n] && m.b[n] <= '9'; n++ {
		c := uint64(m.b[n] - '0')
		if v > (max-c)/10 {
			m.b = m.b[n:]
			m.Fail()
			return 0
		}
		v = v*10 + c
	}
	if n == 0 || n > 1 && m.b[0] == '0' {
		m.Fail()
		return 0
	}
	m.b = m.b[n:]
	return v
}

// Int reads member k's int as strconv.AppendInt wrote it.
func (m *Members) Int(k string) int {
	if !m.key(k) {
		return 0
	}
	if len(m.b) == 0 || m.b[0] != '-' {
		return int(m.digits(math.MaxInt))
	}
	m.b = m.b[1:]
	v := m.digits(math.MaxInt + 1)
	if v == 0 {
		m.Fail() // AppendInt writes no -0
	}
	return -int(v)
}

// Uint reads member k's uint64 as strconv.AppendUint wrote it.
func (m *Members) Uint(k string) uint64 {
	if !m.key(k) {
		return 0
	}
	return m.digits(math.MaxUint64)
}

// Bool reads member k's true or false.
func (m *Members) Bool(k string) bool {
	switch {
	case !m.key(k):
	case len(m.b) >= 4 && string(m.b[:4]) == "true":
		m.b = m.b[4:]
		return true
	case len(m.b) >= 5 && string(m.b[:5]) == "false":
		m.b = m.b[5:]
	default:
		m.Fail()
	}
	return false
}

// maxFloatLen bounds appendFloat's output: 17 significant digits with
// a sign and "0.00000" (the 'f' form just above 1e-6) take 25 bytes.
const maxFloatLen = 32

// Float reads member k's float64 as appendFloat wrote it: the value
// strconv.ParseFloat reads from the token, provided appendFloat writes
// that value back as the same token.
func (m *Members) Float(k string) float64 {
	if !m.key(k) {
		return 0
	}
	n := 0
	for n < len(m.b) && n <= maxFloatLen && isFloatByte(m.b[n]) {
		n++
	}
	if n > maxFloatLen {
		m.Fail()
		return 0
	}
	tok := m.b[:n]
	v, err := strconv.ParseFloat(string(tok), 64)
	var buf [maxFloatLen]byte
	if err != nil || string(appendFloat(buf[:0], v, &err)) != string(tok) {
		m.Fail()
		return 0
	}
	m.b = m.b[n:]
	return v
}

func isFloatByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e'
}
