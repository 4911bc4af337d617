// Package container is the transactional data-structure library the STAMP
// applications are built on, mirroring the original suite's lib/ directory
// (list, queue, hashtable, rbtree, heap, vector, bitmap). Every structure
// lives entirely in a mem.Arena and is manipulated through the tm.Mem
// contract, so the same code runs inside transactions (conflict-detected
// barrier accesses) and in sequential setup/verification phases (direct
// accesses via mem.Direct).
//
// Keys and values are uint64 words; applications layer typed views on top
// (float64 bit patterns, arena addresses of records, packed tuples). Keys
// compare as unsigned integers.
package container

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// List is a sorted singly-linked list with unique keys, the workhorse of
// the original suite (hashtable buckets, adjacency lists, reservation
// lists). The handle is the address of a 2-word header: [size, first].
type List struct{ H mem.Addr }

const (
	listSize  = 0 // header word offsets
	listFirst = 1

	nodeKey  = 0 // node word offsets
	nodeVal  = 1
	nodeNext = 2
)

// ListNodeWords is the arena footprint of one list element, for sizing
// arenas that lists grow into.
const ListNodeWords = 3

// NewList allocates an empty list.
func NewList(m tm.Mem) List {
	h := m.Alloc(2)
	m.Store(h+listSize, 0)
	m.Store(h+listFirst, uint64(mem.Nil))
	return List{H: h}
}

// Len returns the number of elements.
func (l List) Len(m tm.Mem) int { return int(m.Load(l.H + listSize)) }

// find walks to the first node with key >= k, returning it and its
// predecessor (mem.Nil predecessor means the header's first pointer).
func (l List) find(m tm.Mem, k uint64) (prev, cur mem.Addr) {
	prev = mem.Nil
	cur = mem.Addr(m.Load(l.H + listFirst))
	for cur != mem.Nil {
		if m.Load(cur+nodeKey) >= k {
			return prev, cur
		}
		prev, cur = cur, mem.Addr(m.Load(cur+nodeNext))
	}
	return prev, mem.Nil
}

// Insert adds (k, v) keeping the list sorted; it reports false if k already
// exists (the value is left unchanged, as in the original list_insert).
func (l List) Insert(m tm.Mem, k, v uint64) bool {
	prev, cur := l.find(m, k)
	if cur != mem.Nil && m.Load(cur+nodeKey) == k {
		return false
	}
	n := m.Alloc(ListNodeWords)
	m.Store(n+nodeKey, k)
	m.Store(n+nodeVal, v)
	m.Store(n+nodeNext, uint64(cur))
	if prev == mem.Nil {
		m.Store(l.H+listFirst, uint64(n))
	} else {
		m.Store(prev+nodeNext, uint64(n))
	}
	m.Store(l.H+listSize, m.Load(l.H+listSize)+1)
	return true
}

// Remove deletes key k, reporting whether it was present.
func (l List) Remove(m tm.Mem, k uint64) bool {
	prev, cur := l.find(m, k)
	if cur == mem.Nil || m.Load(cur+nodeKey) != k {
		return false
	}
	next := m.Load(cur + nodeNext)
	if prev == mem.Nil {
		m.Store(l.H+listFirst, next)
	} else {
		m.Store(prev+nodeNext, next)
	}
	m.Free(cur, ListNodeWords)
	m.Store(l.H+listSize, m.Load(l.H+listSize)-1)
	return true
}

// Get returns the value stored under k.
func (l List) Get(m tm.Mem, k uint64) (v uint64, ok bool) {
	_, cur := l.find(m, k)
	if cur == mem.Nil || m.Load(cur+nodeKey) != k {
		return 0, false
	}
	return m.Load(cur + nodeVal), true
}

// Contains reports whether k is present.
func (l List) Contains(m tm.Mem, k uint64) bool {
	_, ok := l.Get(m, k)
	return ok
}

// Update stores v under existing key k, reporting whether k was present.
func (l List) Update(m tm.Mem, k, v uint64) bool {
	_, cur := l.find(m, k)
	if cur == mem.Nil || m.Load(cur+nodeKey) != k {
		return false
	}
	m.Store(cur+nodeVal, v)
	return true
}

// Each calls fn(key, value) in ascending key order; fn returning false stops
// the walk.
func (l List) Each(m tm.Mem, fn func(k, v uint64) bool) {
	for cur := mem.Addr(m.Load(l.H + listFirst)); cur != mem.Nil; cur = mem.Addr(m.Load(cur + nodeNext)) {
		if !fn(m.Load(cur+nodeKey), m.Load(cur+nodeVal)) {
			return
		}
	}
}

// First returns the smallest key and its value.
func (l List) First(m tm.Mem) (k, v uint64, ok bool) {
	cur := mem.Addr(m.Load(l.H + listFirst))
	if cur == mem.Nil {
		return 0, 0, false
	}
	return m.Load(cur + nodeKey), m.Load(cur + nodeVal), true
}
