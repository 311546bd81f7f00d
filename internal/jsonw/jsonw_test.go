package jsonw

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

func marshal(t *testing.T, v any) (string, bool) {
	t.Helper()
	data, err := json.Marshal(v)
	return string(data), err == nil
}

// TestStringMatchesMarshal: every one-byte string, every rune up to
// U+FFFF and a few mixed strings encode as json.Marshal encodes them.
func TestStringMatchesMarshal(t *testing.T) {
	var cases []string
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	for r := rune(0x80); r <= 0xffff; r++ {
		cases = append(cases, string(r))
	}
	cases = append(cases, "", "plain", "bad \"cfg\" <x> & y\tünïcødé\u2028end\xff", "\xed\xa0\x80", "\xf0\x9f\x98", "a\u2029b\x7f")
	for _, s := range cases {
		want, _ := marshal(t, s)
		if got := string(appendString(nil, s)); got != want {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
	if utf8.ValidString(string(appendString(nil, "\xff"))) == false {
		t.Fatal("invalid UTF-8 passed through")
	}
}

// TestFloatMatchesMarshal: the 'f'/'e' switch points, their neighbours,
// signed zeros, subnormals and the extremes encode as json.Marshal
// encodes them, and the non-finite values fail as it does.
func TestFloatMatchesMarshal(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1234.5, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 9.99e20, -1e21,
		123456789e-15, 1.5e300, -2.5e-300, math.SmallestNonzeroFloat64, math.MaxFloat64, 5e-324, 1e-10,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range cases {
		want, ok := marshal(t, v)
		var err error
		got := appendFloat(nil, v, &err)
		if (err == nil) != ok || ok && string(got) != want {
			t.Fatalf("appendFloat(%v) = %s, %v; want %s (ok %v)", v, got, err, want, ok)
		}
	}
}

// TestObjectMembers: members are comma-separated in call order and the
// first unsupported float is reported.
func TestObjectMembers(t *testing.T) {
	o := Open([]byte("x"))
	o.String("s", "<a>")
	o.Int("i", -3)
	o.Uint("u", 7)
	o.Bool("b", true)
	o.Float("f", 0.25)
	b, err := o.Close()
	if want := `x{"s":"\u003ca\u003e","i":-3,"u":7,"b":true,"f":0.25}`; string(b) != want || err != nil {
		t.Fatalf("got %s, %v; want %s", b, err, want)
	}
	o = Open(nil)
	o.Float("a", math.Inf(1))
	o.Float("b", math.NaN())
	if _, err := o.Close(); err == nil || err.Error() != "json: unsupported value: +Inf" {
		t.Fatalf("error %v, want the first unsupported value", err)
	}
}
