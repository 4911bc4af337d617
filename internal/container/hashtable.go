package container

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// Hashtable is a fixed-bucket chained hash map with unique uint64 keys,
// mirroring the original suite's hashtable.c (genome's segment set, among
// others). Each bucket is a sorted List. The handle addresses a 2-word
// header: [nbuckets, bucketsPtr]; bucket i's list header address is stored
// at bucketsPtr+i. Like STAMP's, the table keeps no element count: inserts
// and removes into different buckets touch no common word, so they commute.
type Hashtable struct{ H mem.Addr }

const (
	htBuckets = 0
	htData    = 1
)

// NewHashtable allocates a table with nBuckets chains.
func NewHashtable(m tm.Mem, nBuckets int) Hashtable {
	if nBuckets < 1 {
		nBuckets = 1
	}
	h := m.Alloc(2)
	data := m.Alloc(nBuckets)
	m.Store(h+htBuckets, uint64(nBuckets))
	m.Store(h+htData, uint64(data))
	for i := 0; i < nBuckets; i++ {
		l := NewList(m)
		m.Store(data+mem.Addr(i), uint64(l.H))
	}
	return Hashtable{H: h}
}

// mixKey spreads the key bits before bucket selection; keys may themselves
// be hashes or small dense integers.
func mixKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (t Hashtable) bucket(m tm.Mem, k uint64) List {
	n := m.Load(t.H + htBuckets)
	data := mem.Addr(m.Load(t.H + htData))
	i := mixKey(k) % n
	return List{H: mem.Addr(m.Load(data + mem.Addr(i)))}
}

// Len counts the elements with a walk of every bucket: O(n), and like
// mem.Direct for quiescent use only (verification, tests).
func (t Hashtable) Len(m tm.Mem) (n int) {
	t.Each(m, func(_, _ uint64) bool { n++; return true })
	return n
}

// Insert adds (k, v); it reports false if k is already present.
func (t Hashtable) Insert(m tm.Mem, k, v uint64) bool { return t.bucket(m, k).Insert(m, k, v) }

// Remove deletes k, reporting whether it was present.
func (t Hashtable) Remove(m tm.Mem, k uint64) bool { return t.bucket(m, k).Remove(m, k) }

// Get returns the value stored under k.
func (t Hashtable) Get(m tm.Mem, k uint64) (uint64, bool) {
	return t.bucket(m, k).Get(m, k)
}

// Contains reports whether k is present.
func (t Hashtable) Contains(m tm.Mem, k uint64) bool {
	return t.bucket(m, k).Contains(m, k)
}

// Update stores v under existing key k.
func (t Hashtable) Update(m tm.Mem, k, v uint64) bool {
	return t.bucket(m, k).Update(m, k, v)
}

// Each calls fn for every (key, value) pair, bucket by bucket; fn returning
// false stops the walk.
func (t Hashtable) Each(m tm.Mem, fn func(k, v uint64) bool) {
	n := int(m.Load(t.H + htBuckets))
	data := mem.Addr(m.Load(t.H + htData))
	stop := false
	for i := 0; i < n && !stop; i++ {
		List{H: mem.Addr(m.Load(data + mem.Addr(i)))}.Each(m, func(k, v uint64) bool {
			stop = !fn(k, v)
			return !stop
		})
	}
}
