// Package sig implements the hardware address signatures used by the hybrid
// TM systems (SigTM) and by the eager HTM's overflow path.
//
// Per Table V of the paper each signature register is 2048 bits and is
// indexed by four hash functions of the cache-line address:
//
//  1. the unpermuted line address,
//  2. the line address permuted (bit-mixed) as in Bulk [Ceze et al.],
//  3. hash (2) shifted right by 10 bits,
//  4. a permutation of the lower 16 bits of the line address.
//
// A signature is a Bloom filter: inserts and membership tests never miss a
// real member but may report false positives, which is exactly the source of
// the false-conflict behaviour the paper observes for the eager HTM on bayes
// and labyrinth+.
//
// Signatures are written only by their owning transaction but tested
// concurrently by every other transaction, so all word accesses are atomic.
package sig

import "sync/atomic"

// Bits is the signature register width (Table V: 2048 bits per register).
const Bits = 2048

const words = Bits / 64

// Signature is a 2048-bit Bloom filter over cache-line addresses.
// The zero value is an empty signature.
type Signature struct {
	w [words]atomic.Uint64
}

// hash1..hash4 map a line address to a bit index in [0, Bits).

func hash1(line uint32) uint32 { return line % Bits }

// hash2 permutes the line address with an avalanche mix (standing in for the
// Bulk bit-permutation network, which is also a fixed bijection on bits).
func hash2(line uint32) uint32 {
	x := line
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x % Bits
}

func hash3(line uint32) uint32 {
	x := line
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return (x >> 10) % Bits
}

func hash4(line uint32) uint32 {
	x := line & 0xffff
	x = (x | x<<8) & 0x00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f
	x = (x | x<<2) & 0x33333333
	x = (x | x<<1) & 0x55555555
	return x % Bits
}

// Insert adds a line address to the signature. A bit already set costs a
// load, not a locked OR: only the owner sets bits, so none can be cleared
// between the test and the skipped set.
func (s *Signature) Insert(line uint32) {
	for _, h := range [4]uint32{hash1(line), hash2(line), hash3(line), hash4(line)} {
		w, bit := &s.w[h/64], uint64(1)<<(h%64)
		if w.Load()&bit == 0 {
			w.Or(bit)
		}
	}
}

// Test reports whether the line address may be present (no false negatives).
func (s *Signature) Test(line uint32) bool {
	for _, h := range [4]uint32{hash1(line), hash2(line), hash3(line), hash4(line)} {
		if s.w[h/64].Load()&(1<<(h%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the signature, storing only to the words that hold a bit.
// Owner-only, like Insert.
func (s *Signature) Clear() {
	for i := range s.w {
		if s.w[i].Load() != 0 {
			s.w[i].Store(0)
		}
	}
}

// Empty reports whether no bits are set.
func (s *Signature) Empty() bool {
	for i := range s.w {
		if s.w[i].Load() != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share any set bit position. This is a
// conservative overlap test between two address sets, used for
// signature-vs-signature conflict checks.
func (s *Signature) Intersects(o *Signature) bool {
	for i := range s.w {
		if s.w[i].Load()&o.w[i].Load() != 0 {
			return true
		}
	}
	return false
}

// PopCount returns the number of set bits (occupancy), useful for tests and
// for reasoning about false-positive rates.
func (s *Signature) PopCount() int {
	n := 0
	for i := range s.w {
		v := s.w[i].Load()
		for v != 0 {
			v &= v - 1
			n++
		}
	}
	return n
}
