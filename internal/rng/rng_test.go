package rng

import (
	"math"
	"sort"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("gaussian variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		q := append([]int(nil), p...)
		sort.Ints(q)
		for i, v := range q {
			if v != i {
				t.Fatalf("Perm(%d) missing %d", n, i)
			}
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(23)
	s := []int{5, 6, 7, 8, 9}
	r.ShuffleInts(s)
	q := append([]int(nil), s...)
	sort.Ints(q)
	for i, v := range q {
		if v != i+5 {
			t.Fatal("shuffle lost elements")
		}
	}
}

func TestUint32NotConstant(t *testing.T) {
	r := New(29)
	first := r.Uint32()
	for i := 0; i < 10; i++ {
		if r.Uint32() != first {
			return
		}
	}
	t.Fatal("Uint32 appears constant")
}

// TestJumpMatchesDraws: Jump(k) must leave the stream where k Uint64 draws
// leave it, for k across the ranges stagers jump by.
func TestJumpMatchesDraws(t *testing.T) {
	for _, k := range []uint64{0, 1, 2, 3, 17, 1000, 65536, 196608} {
		drawn, jumped := New(0x696e6974^1), New(0x696e6974^1)
		for i := uint64(0); i < k; i++ {
			drawn.Uint64()
		}
		jumped.Jump(k)
		for i := 0; i < 4; i++ {
			if d, j := drawn.Uint64(), jumped.Uint64(); d != j {
				t.Fatalf("Jump(%d): draw %d is %#x, want %#x", k, i, j, d)
			}
		}
	}
}
