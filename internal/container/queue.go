package container

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// Queue is a growable circular-buffer FIFO of words, mirroring the original
// suite's queue.c (used by intruder's packet capture phase and labyrinth's
// work distribution). The handle addresses a 4-word header:
// [capacity, size, head, dataPtr]. Unlike Hashtable and RBTree it keeps its
// size word: STAMP's intruder shares one queue among all threads too, and
// Pop must read the count to find it empty.
type Queue struct{ H mem.Addr }

const (
	qCap  = 0
	qSize = 1
	qHead = 2
	qData = 3
)

// NewQueue allocates a queue with the given initial capacity (minimum 2).
func NewQueue(m tm.Mem, capacity int) Queue {
	if capacity < 2 {
		capacity = 2
	}
	h := m.Alloc(4)
	data := m.Alloc(capacity)
	m.Store(h+qCap, uint64(capacity))
	m.Store(h+qSize, 0)
	m.Store(h+qHead, 0)
	m.Store(h+qData, uint64(data))
	return Queue{H: h}
}

// LoadQueue builds the queue that NewQueue(m, capacity) followed by Push
// calls of v(0), v(1), ..., v(n-1) leaves, word for word, but writes each
// word once and never loads. Push doubles a full buffer, so when n exceeds
// capacity the loader draws the same run of buffers in the same order,
// each retired one holding the values it held when Push outgrew it (freed
// as Push frees it). Like the other loaders it is for quiescent use
// (setup): the queue is unreadable until it returns.
func LoadQueue(m tm.Mem, capacity, n int, v func(i int) uint64) Queue {
	if capacity < 2 {
		capacity = 2
	}
	h := m.Alloc(4)
	data := m.Alloc(capacity)
	fill := func(data mem.Addr, k int) {
		for i := 0; i < k; i++ {
			m.Store(data+mem.Addr(i), v(i))
		}
	}
	for n > capacity {
		fill(data, capacity)
		grown := m.Alloc(2 * capacity)
		m.Free(data, capacity)
		data, capacity = grown, 2*capacity
	}
	fill(data, n)
	m.Store(h+qCap, uint64(capacity))
	m.Store(h+qSize, uint64(max(n, 0)))
	m.Store(h+qHead, 0)
	m.Store(h+qData, uint64(data))
	return Queue{H: h}
}

// Len returns the number of queued elements.
func (q Queue) Len(m tm.Mem) int { return int(m.Load(q.H + qSize)) }

// Empty reports whether the queue is empty.
func (q Queue) Empty(m tm.Mem) bool { return q.Len(m) == 0 }

// Push appends v, growing the buffer if full.
func (q Queue) Push(m tm.Mem, v uint64) {
	capa := m.Load(q.H + qCap)
	size := m.Load(q.H + qSize)
	head := m.Load(q.H + qHead)
	data := mem.Addr(m.Load(q.H + qData))
	if size == capa {
		newCap := capa * 2
		newData := m.Alloc(int(newCap))
		for i := uint64(0); i < size; i++ {
			m.Store(newData+mem.Addr(i), m.Load(data+mem.Addr((head+i)%capa)))
		}
		m.Free(data, int(capa))
		data, head, capa = newData, 0, newCap
		m.Store(q.H+qCap, capa)
		m.Store(q.H+qHead, 0)
		m.Store(q.H+qData, uint64(data))
	}
	m.Store(data+mem.Addr((head+size)%capa), v)
	m.Store(q.H+qSize, size+1)
}

// Pop removes and returns the oldest element.
func (q Queue) Pop(m tm.Mem) (v uint64, ok bool) {
	size := m.Load(q.H + qSize)
	if size == 0 {
		return 0, false
	}
	capa := m.Load(q.H + qCap)
	head := m.Load(q.H + qHead)
	data := mem.Addr(m.Load(q.H + qData))
	v = m.Load(data + mem.Addr(head))
	m.Store(q.H+qHead, (head+1)%capa)
	m.Store(q.H+qSize, size-1)
	return v, true
}
