package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide on %d/100 draws", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Fatalf("Reseed did not restart stream: %x vs %x", got, first)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if a, b := r.Uint64(), r.Uint64(); a == 0 && b == 0 {
		t.Fatal("seed 0 produced degenerate zero stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %v", f)
	}
}

func TestExpMean(t *testing.T) {
	r := New(23)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.3 {
		t.Fatalf("Exp(10) mean %v", mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	if v := New(1).Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %v", v)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(29)
	z := NewZipfCDF(100, 1.0).Sampler(r)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfZeroExponentIsUniformish(t *testing.T) {
	r := New(31)
	z := NewZipfCDF(10, 0).Sampler(r)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("uniform Zipf bucket %d count %d", i, c)
		}
	}
}

func TestZipfSamplersShareCDF(t *testing.T) {
	cdf := NewZipfCDF(4096, 0.9)
	a, b := cdf.Sampler(New(41)), cdf.Sampler(New(41))
	c := NewZipfCDF(4096, 0.9).Sampler(New(41))
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y || x != z {
			t.Fatalf("draw %d: %d, %d, %d", i, x, y, z)
		}
	}
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("CDF ends at %v", cdf[len(cdf)-1])
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	p := make([]int, 50)
	r.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Uint64n(n) < n for arbitrary positive n.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(41)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: reseeding with the same value always reproduces the stream.
func TestReseedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
