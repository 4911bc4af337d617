package sig

import (
	"testing"
	"testing/quick"

	"github.com/stamp-go/stamp/internal/rng"
)

func TestNoFalseNegatives(t *testing.T) {
	f := func(lines []uint32) bool {
		var s Signature
		for _, l := range lines {
			s.Insert(l)
		}
		for _, l := range lines {
			if !s.Test(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTestsNegative(t *testing.T) {
	var s Signature
	if !s.Empty() {
		t.Fatal("zero value not empty")
	}
	for l := uint32(0); l < 1000; l++ {
		if s.Test(l) {
			t.Fatalf("empty signature claims membership of %d", l)
		}
	}
}

func TestClear(t *testing.T) {
	var s Signature
	for l := uint32(0); l < 100; l++ {
		s.Insert(l)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left bits set")
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// Insert 64 random lines, probe 10k others: with 2048 bits / 4 hashes the
	// false-positive rate should be small (theory ~0.02% at this load; allow
	// a wide margin for hash imperfection).
	r := rng.New(99)
	var s Signature
	inserted := map[uint32]bool{}
	for len(inserted) < 64 {
		l := r.Uint32()
		inserted[l] = true
		s.Insert(l)
	}
	fp := 0
	probes := 0
	for probes < 10000 {
		l := r.Uint32()
		if inserted[l] {
			continue
		}
		probes++
		if s.Test(l) {
			fp++
		}
	}
	if fp > 200 { // 2%
		t.Fatalf("false positive rate too high: %d / %d", fp, probes)
	}
}

func TestFalsePositivesExistWhenSaturated(t *testing.T) {
	// The Bloom filter must be conservative: saturate it and verify it
	// reports (false) conflicts for addresses never inserted — this is the
	// mechanism behind the paper's eager-HTM overflow behaviour.
	var s Signature
	for l := uint32(0); l < 100000; l++ {
		s.Insert(l * 7)
	}
	if !s.Test(3) && !s.Test(123457) && !s.Test(999999999) {
		t.Fatal("saturated filter reported no membership at all; implausible")
	}
}

func TestIntersects(t *testing.T) {
	var a, b Signature
	a.Insert(10)
	b.Insert(20)
	// Not guaranteed disjoint (hash collisions), but same-line must intersect.
	b.Insert(10)
	if !a.Intersects(&b) {
		t.Fatal("signatures sharing a line do not intersect")
	}
	var c Signature
	if a.Intersects(&c) {
		t.Fatal("intersects empty")
	}
}

func TestPopCountGrows(t *testing.T) {
	var s Signature
	if s.PopCount() != 0 {
		t.Fatal("pop count of empty != 0")
	}
	s.Insert(42)
	if n := s.PopCount(); n < 1 || n > 4 {
		t.Fatalf("pop count after one insert = %d, want 1..4", n)
	}
}

func TestHashesInRange(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 10000; i++ {
		l := r.Uint32()
		for _, h := range []uint32{hash1(l), hash2(l), hash3(l), hash4(l)} {
			if h >= Bits {
				t.Fatalf("hash out of range: %d", h)
			}
		}
	}
}

// BenchmarkInsert and BenchmarkTest time the two signature operations of
// Table V's machine: an eager-HTM barrier in overflow mode inserts each new
// line, and every peer's barrier tests it.
func BenchmarkInsert(b *testing.B) {
	var s Signature
	for i := 0; i < b.N; i++ {
		s.Insert(uint32(i))
	}
}

func BenchmarkTest(b *testing.B) {
	var s Signature
	for i := 0; i < 1024; i++ {
		s.Insert(uint32(i * 7))
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.Test(uint32(i)) {
			hits++
		}
	}
	_ = hits
}
