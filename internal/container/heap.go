package container

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// Heap is a growable binary min-heap of (key, value) pairs ordered by key
// (the original suite's heap.c, used by yada's work queue of skinny
// triangles). The handle addresses a 3-word header: [size, cap, dataPtr];
// entry i occupies data[2i] (key) and data[2i+1] (value). Unlike Hashtable
// and RBTree it keeps its size word: STAMP's yada shares one heap among all
// threads too, and Pop must read the count to find the last entry.
type Heap struct{ H mem.Addr }

const (
	hSize = 0
	hCap  = 1
	hData = 2
)

// NewHeap allocates an empty heap with room for capacity entries.
func NewHeap(m tm.Mem, capacity int) Heap {
	if capacity < 2 {
		capacity = 2
	}
	h := m.Alloc(3)
	data := m.Alloc(2 * capacity)
	m.Store(h+hSize, 0)
	m.Store(h+hCap, uint64(capacity))
	m.Store(h+hData, uint64(data))
	return Heap{H: h}
}

// Len returns the entry count.
func (h Heap) Len(m tm.Mem) int { return int(m.Load(h.H + hSize)) }

func (h Heap) keyAt(m tm.Mem, data mem.Addr, i uint64) uint64 {
	return m.Load(data + mem.Addr(2*i))
}

func (h Heap) swap(m tm.Mem, data mem.Addr, i, j uint64) {
	ki, vi := m.Load(data+mem.Addr(2*i)), m.Load(data+mem.Addr(2*i+1))
	kj, vj := m.Load(data+mem.Addr(2*j)), m.Load(data+mem.Addr(2*j+1))
	m.Store(data+mem.Addr(2*i), kj)
	m.Store(data+mem.Addr(2*i+1), vj)
	m.Store(data+mem.Addr(2*j), ki)
	m.Store(data+mem.Addr(2*j+1), vi)
}

// Push inserts (key, val).
func (h Heap) Push(m tm.Mem, key, val uint64) {
	size := m.Load(h.H + hSize)
	capa := m.Load(h.H + hCap)
	data := mem.Addr(m.Load(h.H + hData))
	if size == capa {
		newCap := capa * 2
		newData := m.Alloc(int(2 * newCap))
		for i := uint64(0); i < 2*size; i++ {
			m.Store(newData+mem.Addr(i), m.Load(data+mem.Addr(i)))
		}
		m.Free(data, int(2*capa))
		data = newData
		m.Store(h.H+hCap, newCap)
		m.Store(h.H+hData, uint64(data))
	}
	m.Store(data+mem.Addr(2*size), key)
	m.Store(data+mem.Addr(2*size+1), val)
	m.Store(h.H+hSize, size+1)
	// Sift up.
	i := size
	for i > 0 {
		parent := (i - 1) / 2
		if h.keyAt(m, data, parent) <= h.keyAt(m, data, i) {
			break
		}
		h.swap(m, data, parent, i)
		i = parent
	}
}

// Pop removes and returns the minimum-key entry.
func (h Heap) Pop(m tm.Mem) (key, val uint64, ok bool) {
	size := m.Load(h.H + hSize)
	if size == 0 {
		return 0, 0, false
	}
	data := mem.Addr(m.Load(h.H + hData))
	key = m.Load(data)
	val = m.Load(data + 1)
	size--
	m.Store(h.H+hSize, size)
	if size > 0 {
		m.Store(data, m.Load(data+mem.Addr(2*size)))
		m.Store(data+1, m.Load(data+mem.Addr(2*size+1)))
		// Sift down.
		i := uint64(0)
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < size && h.keyAt(m, data, l) < h.keyAt(m, data, smallest) {
				smallest = l
			}
			if r < size && h.keyAt(m, data, r) < h.keyAt(m, data, smallest) {
				smallest = r
			}
			if smallest == i {
				break
			}
			h.swap(m, data, i, smallest)
			i = smallest
		}
	}
	return key, val, true
}

// Peek returns the minimum entry without removing it.
func (h Heap) Peek(m tm.Mem) (key, val uint64, ok bool) {
	if m.Load(h.H+hSize) == 0 {
		return 0, 0, false
	}
	data := mem.Addr(m.Load(h.H + hData))
	return m.Load(data), m.Load(data + 1), true
}
