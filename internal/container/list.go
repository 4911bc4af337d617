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
	"fmt"

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

// ListHeaderWords is the arena footprint of an empty list (its header).
const ListHeaderWords = 2

// NewList allocates an empty list.
func NewList(m tm.Mem) List {
	h := m.Alloc(ListHeaderWords)
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

// ListLoader bulk-builds a List from keys appended in strictly ascending
// order, leaving word for word the arena that NewList followed by the same
// Insert calls leaves. Each append links at the tail instead of walking the
// list from its head, and, as with RBLoader, each word is written once, when
// it is final, through a mem.Block. Quiescent use only: the list is
// unreadable until Finish. A loader finished with no Append is NewList's
// empty list.
type ListLoader struct {
	m          *mem.Block
	h, tail    mem.Addr
	size, last uint64
}

// NewListLoader allocates the list header from m, as NewList does; the
// header words are written by Append and Finish.
func NewListLoader(m *mem.Block) ListLoader {
	return ListLoader{m: m, h: m.Alloc(ListHeaderWords)}
}

// Append adds (k, v) as Insert would. It panics unless k is greater than
// every key appended before it.
func (b *ListLoader) Append(k, v uint64) {
	if b.tail != mem.Nil && k <= b.last {
		panic(fmt.Sprintf("container: ListLoader.Append(%d) after %d: keys must ascend", k, b.last))
	}
	b.last = k
	n := b.m.Alloc(ListNodeWords)
	b.m.Store(n+nodeKey, k)
	b.m.Store(n+nodeVal, v)
	if b.tail == mem.Nil {
		b.m.Store(b.h+listFirst, uint64(n))
	} else {
		b.m.Store(b.tail+nodeNext, uint64(n))
	}
	b.tail = n
	b.size++
}

// Finish terminates the list, writes its size and returns it. The loader
// must not be used afterwards.
func (b *ListLoader) Finish() List {
	if b.tail == mem.Nil {
		b.m.Store(b.h+listFirst, uint64(mem.Nil))
	} else {
		b.m.Store(b.tail+nodeNext, uint64(mem.Nil))
	}
	b.m.Store(b.h+listSize, b.size)
	return List{H: b.h}
}

// First returns the smallest key and its value.
func (l List) First(m tm.Mem) (k, v uint64, ok bool) {
	cur := mem.Addr(m.Load(l.H + listFirst))
	if cur == mem.Nil {
		return 0, 0, false
	}
	return m.Load(cur + nodeKey), m.Load(cur + nodeVal), true
}
