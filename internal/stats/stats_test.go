package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestRatio pins the normalised-metric convention the result and
// experiment code use: SafeDiv(a, baseline, 0), reading 0 on a zero
// baseline.
func TestRatio(t *testing.T) {
	if r := SafeDiv(1, 2, 0); r != 0.5 {
		t.Fatalf("ratio(1,2) = %v", r)
	}
	if r := SafeDiv(1, 0, 0); r != 0 {
		t.Fatalf("ratio by zero = %v, want 0", r)
	}
}

func TestSafeDiv(t *testing.T) {
	if v := SafeDiv(10, 4, -1); v != 2.5 {
		t.Fatalf("SafeDiv = %v", v)
	}
	if v := SafeDiv(10, 0, -1); v != -1 {
		t.Fatalf("SafeDiv default = %v", v)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{1, 0, 4}); g != 0 {
		t.Fatalf("Geomean with zero = %v, want 0", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v", g)
	}
}

func TestGeomeanNonZero(t *testing.T) {
	if g := GeomeanNonZero([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeomeanNonZero(2,8) = %v", g)
	}
	// Zeros are dropped, not poisonous (unlike Geomean).
	if g := GeomeanNonZero([]float64{2, 0, 8, 0}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeomeanNonZero with zeros = %v, want 4", g)
	}
	// Negatives are dropped too.
	if g := GeomeanNonZero([]float64{-3, 2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeomeanNonZero with negative = %v, want 4", g)
	}
	if g := GeomeanNonZero([]float64{0, 0}); g != 0 {
		t.Fatalf("GeomeanNonZero(all zero) = %v, want 0", g)
	}
	if g := GeomeanNonZero(nil); g != 0 {
		t.Fatalf("GeomeanNonZero(nil) = %v, want 0", g)
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-9 && x < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") {
		t.Fatalf("row wrong: %q", lines[2])
	}
	// Columns aligned: the separator position must match across rows.
	if strings.Index(lines[2], "|") != strings.Index(lines[3], "|") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("a", "b", "c")
	tab.AddRow("only")
	if out := tab.String(); !strings.Contains(out, "only") {
		t.Fatalf("short row lost:\n%s", out)
	}
}
