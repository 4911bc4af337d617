package container

import (
	"slices"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// wordMem is a growable, resettable tm.Mem over a plain slice, so a sweep
// can rebuild thousands of trees without mapping an arena for each. Like an
// arena, it never hands out address 0 (mem.Nil). Unlike a fresh arena, it
// hands out words that are not zero, so a word a builder forgets to write —
// a nil link, say — shows up as a difference.
type wordMem struct{ w []uint64 }

const unwritten = 0x5a5a5a5a5a5a5a5a

func newWordMem() *wordMem { return &wordMem{w: make([]uint64, mem.WordsPerLine)} }

func (m *wordMem) reset()                     { m.w = m.w[:mem.WordsPerLine] }
func (m *wordMem) Load(a mem.Addr) uint64     { return m.w[a] }
func (m *wordMem) Store(a mem.Addr, v uint64) { m.w[a] = v }
func (m *wordMem) Free(mem.Addr, int)         {}
func (m *wordMem) Alloc(n int) mem.Addr {
	a := mem.Addr(len(m.w))
	for range n {
		m.w = append(m.w, unwritten)
	}
	return a
}

// countMem counts the accesses made through it.
type countMem struct {
	tm.Mem
	loads, stores int
}

func (m *countMem) Load(a mem.Addr) uint64     { m.loads++; return m.Mem.Load(a) }
func (m *countMem) Store(a mem.Addr, v uint64) { m.stores++; m.Mem.Store(a, v) }

// loaderKey and loaderVal are the rows the equivalence tests build: keys
// ascend with gaps, values are distinct.
func loaderKey(i int) uint64 { return uint64(3*i + 1) }
func loaderVal(i int) uint64 { return uint64(7*i + 5) }

func loadTree(m tm.Mem, n int) RBTree {
	b := NewRBLoader(m)
	for i := 0; i < n; i++ {
		b.Append(loaderKey(i), loaderVal(i))
	}
	return b.Finish()
}

func insertTree(m tm.Mem, n int) RBTree {
	tr := NewRBTree(m)
	for i := 0; i < n; i++ {
		tr.Insert(m, loaderKey(i), loaderVal(i))
	}
	return tr
}

// TestRBLoaderMatchesInsert pins the loader's contract: for every n in
// 0..3000, and at the vacation sizes 16384 and 32768, it leaves exactly the
// words of NewRBTree plus n ascending Inserts — same allocations, same node
// words, same header.
func TestRBLoaderMatchesInsert(t *testing.T) {
	ins, ld := newWordMem(), newWordMem()
	tr := NewRBTree(ins)
	for n := 0; n <= 3000; n++ {
		if n > 0 {
			tr.Insert(ins, loaderKey(n-1), loaderVal(n-1))
		}
		ld.reset()
		if got := loadTree(ld, n); got != tr {
			t.Fatalf("n=%d: loader header at %d, Insert's at %d", n, got.H, tr.H)
		}
		if i := firstDiff(ins.w, ld.w); i >= 0 {
			t.Fatalf("n=%d: arenas differ at word %d (insert %d words, loader %d)", n, i, len(ins.w), len(ld.w))
		}
	}
	for _, n := range []int{16384, 32768} {
		words := RBNodeWords*n + 64
		a, b := mem.NewArena(words), mem.NewArena(words)
		insertTree(mem.Direct{A: a}, n)
		lt := loadTree(mem.Direct{A: b}, n)
		if a.Used() != b.Used() {
			t.Fatalf("n=%d: Used %d after Insert, %d after the loader", n, a.Used(), b.Used())
		}
		for w := 0; w < a.Used(); w++ {
			if x, y := a.Load(mem.Addr(w)), b.Load(mem.Addr(w)); x != y {
				t.Fatalf("n=%d: word %d is %d after Insert, %d after the loader", n, w, x, y)
			}
		}
		if lt.checkInvariants(mem.Direct{A: b}) < 0 {
			t.Fatalf("n=%d: loaded tree violates the red-black invariants", n)
		}
	}
}

// firstDiff returns the first index where a and b differ (length included),
// or -1.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestRBLoaderWritesEachWordOnce pins the write-once property: six stores
// per node, one for the header, no loads.
func TestRBLoaderWritesEachWordOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000, 4097} {
		m := &countMem{Mem: newWordMem()}
		loadTree(m, n)
		if want := RBNodeWords*n + 1; m.stores != want || m.loads != 0 {
			t.Fatalf("n=%d: %d stores and %d loads, want %d and 0", n, m.stores, m.loads, want)
		}
	}
}

// TestLoadersRejectNonAscendingKeys: an equal or smaller key panics, and the
// first key may be anything, 0 included.
func TestLoadersRejectNonAscendingKeys(t *testing.T) {
	for _, second := range []uint64{5, 4, 0} {
		rb := NewRBLoader(newWordMem())
		rb.Append(5, 0)
		mustPanic(t, "keys must ascend", func() { rb.Append(second, 0) })
		l := NewListLoader(newWordMem())
		l.Append(5, 0)
		mustPanic(t, "keys must ascend", func() { l.Append(second, 0) })
	}
	m := newWordMem()
	rb := NewRBLoader(m)
	rb.Append(0, 1)
	rb.Append(1, 2)
	if tr := rb.Finish(); tr.Len(m) != 2 {
		t.Fatalf("Len = %d after appending keys 0 and 1", tr.Len(m))
	} else if v, ok := tr.Get(m, 0); !ok || v != 1 {
		t.Fatalf("Get(0) = %d, %v", v, ok)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, want) {
			t.Fatalf("recovered %v, want a panic mentioning %q", r, want)
		}
	}()
	fn()
}

// TestListLoaderMatchesInsert: the list loader leaves the words of NewList
// plus ascending Inserts, for every length up to 200.
func TestListLoaderMatchesInsert(t *testing.T) {
	ins, ld := newWordMem(), newWordMem()
	l := NewList(ins)
	for n := 0; n <= 200; n++ {
		if n > 0 {
			l.Insert(ins, loaderKey(n-1), loaderVal(n-1))
		}
		ld.reset()
		b := NewListLoader(ld)
		for i := 0; i < n; i++ {
			b.Append(loaderKey(i), loaderVal(i))
		}
		if got := b.Finish(); got != l {
			t.Fatalf("n=%d: loader header at %d, Insert's at %d", n, got.H, l.H)
		}
		if i := firstDiff(ins.w, ld.w); i >= 0 {
			t.Fatalf("n=%d: arenas differ at word %d", n, i)
		}
	}
}

// TestQueueLoaderMatchesPush: LoadQueue leaves the words of NewQueue plus
// n Pushes, for n in 0..3 and at intruder's 131072 packets, both sized to
// fit (as every Setup sizes its queue) and from the minimum capacity, so
// that the doubling buffers are drawn too. It writes each word once and
// never loads.
func TestQueueLoaderMatchesPush(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 131072} {
		for _, capacity := range []int{0, n + 1} {
			pushed, ld := newWordMem(), newWordMem()
			q := NewQueue(pushed, capacity)
			for i := 0; i < n; i++ {
				q.Push(pushed, loaderVal(i))
			}
			cm := &countMem{Mem: ld}
			if got := LoadQueue(cm, capacity, n, loaderVal); got != q {
				t.Fatalf("n=%d capacity=%d: loader header at %d, NewQueue's at %d", n, capacity, got.H, q.H)
			}
			if i := firstDiff(pushed.w, ld.w); i >= 0 {
				t.Fatalf("n=%d capacity=%d: arenas differ at word %d", n, capacity, i)
			}
			if written := len(ld.w) - mem.WordsPerLine; cm.loads != 0 || cm.stores > written {
				t.Fatalf("n=%d capacity=%d: %d loads and %d stores into %d words", n, capacity, cm.loads, cm.stores, written)
			}
		}
	}
}

// FuzzRBTreeLoader loads up to 4096 ascending keys with fuzzed gaps, checks
// the result against ascending Inserts word for word, then runs a fuzzed
// Insert/Remove sequence on the loaded tree against a map model: the
// red-black invariants, Len and the in-order walk must hold throughout.
func FuzzRBTreeLoader(f *testing.F) {
	f.Add(uint16(0), []byte{}, []byte{})
	f.Add(uint16(1), []byte{0}, []byte{0, 0, 0})
	f.Add(uint16(64), []byte{0}, []byte{1, 0, 10, 1, 0, 20, 0, 0, 5})
	f.Add(uint16(1000), []byte{3, 0, 250, 1}, []byte{1, 3, 232, 1, 0, 1, 0, 255, 255, 1, 1, 1})
	f.Add(uint16(4096), []byte{0, 0, 0, 7}, []byte{1, 0, 0, 1, 16, 0, 0, 8, 0, 1, 63, 255})
	f.Fuzz(func(t *testing.T, n uint16, gaps, ops []byte) {
		n %= 4097
		ld, ins := newWordMem(), newWordMem()
		b := NewRBLoader(ld)
		ref := NewRBTree(ins)
		model := map[uint64]uint64{}
		var key uint64
		for i := 0; i < int(n); i++ {
			if i > 0 {
				key++
				if len(gaps) > 0 {
					key += uint64(gaps[i%len(gaps)])
				}
			}
			b.Append(key, uint64(i))
			ref.Insert(ins, key, uint64(i))
			model[key] = uint64(i)
		}
		tr := b.Finish()
		if i := firstDiff(ins.w, ld.w); i >= 0 {
			t.Fatalf("n=%d: loader and Insert differ at word %d", n, i)
		}
		check := func(step int) {
			if tr.checkInvariants(ld) < 0 {
				t.Fatalf("step %d: red-black invariants violated", step)
			}
			if tr.Len(ld) != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, tr.Len(ld), len(model))
			}
		}
		check(-1)
		span := key + 2 // ops reach past the largest loaded key
		for i := 0; i+2 < len(ops); i += 3 {
			k := (uint64(ops[i+1])<<8 | uint64(ops[i+2])) % span
			if ops[i]&1 == 0 {
				_, had := model[k]
				if tr.Insert(ld, k, uint64(i)) == had {
					t.Fatalf("op %d: Insert(%d) disagrees with the model", i/3, k)
				}
				if !had {
					model[k] = uint64(i)
				}
			} else {
				_, had := model[k]
				if tr.Remove(ld, k) != had {
					t.Fatalf("op %d: Remove(%d) disagrees with the model", i/3, k)
				}
				delete(model, k)
			}
			if i%192 == 0 {
				check(i / 3)
			}
		}
		check(len(ops) / 3)
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		j := 0
		tr.Each(ld, func(k, v uint64) bool {
			if j >= len(want) || k != want[j] || v != model[k] {
				t.Fatalf("in-order walk at %d: got (%d, %d)", j, k, v)
			}
			j++
			return true
		})
		if j != len(want) {
			t.Fatalf("in-order walk visited %d keys, model has %d", j, len(want))
		}
	})
}
