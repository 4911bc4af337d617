package container

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// unwritten is what every word of a poisoned arena holds before a build
// writes it. A fresh arena's words are zero, so a word a builder forgets to
// write — a nil link, say — would read as if written; against this value
// it shows up as a difference.
const unwritten = 0x5a5a5a5a5a5a5a5a

// poisoned returns an arena of capacity words whose words past line 0 (the
// ones Alloc and Carve can hand out) all hold unwritten.
func poisoned(words int) *mem.Arena {
	a := mem.NewArena(words)
	d := mem.Direct{A: a}
	for w := mem.WordsPerLine; w < a.Cap(); w++ {
		d.Store(mem.Addr(w), unwritten)
	}
	return a
}

// carved returns a block of exactly words words, carved first from a
// poisoned arena with room for extra more words after it.
func carved(words, extra int) (*mem.Arena, *mem.Block) {
	a := poisoned(mem.WordsPerLine + words + extra)
	return a, a.Carve(words)
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

// treeWords is what a tree of n nodes draws: its header and n nodes.
func treeWords(n int) int { return 1 + RBNodeWords*n }

// loadTree loads n rows through an exactly sized block, carved first from a
// poisoned arena with room for extra more words, and checks that the
// loader drew the whole block.
func loadTree(t testing.TB, n, extra int) (*mem.Arena, RBTree) {
	t.Helper()
	a, b := carved(treeWords(n), extra)
	l := NewRBLoader(b)
	for i := 0; i < n; i++ {
		l.Append(loaderKey(i), loaderVal(i))
	}
	tr := l.Finish()
	if b.Left() != 0 {
		t.Fatalf("n=%d: the loader left %d of its %d words undrawn", n, b.Left(), treeWords(n))
	}
	return a, tr
}

func insertTree(m tm.Mem, n int) RBTree {
	tr := NewRBTree(m)
	for i := 0; i < n; i++ {
		tr.Insert(m, loaderKey(i), loaderVal(i))
	}
	return tr
}

// sameWords returns "" when a and b drew the same words and hold the same
// value in each, and otherwise where they first differ.
func sameWords(a, b *mem.Arena) string {
	if a.Used() != b.Used() {
		return fmt.Sprintf("Used %d vs %d", a.Used(), b.Used())
	}
	for w := mem.Addr(0); int(w) < a.Used(); w++ {
		if x, y := a.Load(w), b.Load(w); x != y {
			return fmt.Sprintf("word %d is %#x vs %#x", w, x, y)
		}
	}
	return ""
}

// TestRBLoaderMatchesInsert pins the loader's contract: for every n in
// 0..3000, and at the vacation sizes 16384 and 32768, it leaves exactly the
// words of NewRBTree plus n ascending Inserts — same allocations, same node
// words, same header — and writes every word it draws (the arenas start
// poisoned).
func TestRBLoaderMatchesInsert(t *testing.T) {
	ins := poisoned(mem.WordsPerLine + treeWords(3000))
	tr := NewRBTree(mem.Direct{A: ins})
	for n := 0; n <= 3000; n++ {
		if n > 0 {
			tr.Insert(mem.Direct{A: ins}, loaderKey(n-1), loaderVal(n-1))
		}
		ld, got := loadTree(t, n, 0)
		if got != tr {
			t.Fatalf("n=%d: loader header at %d, Insert's at %d", n, got.H, tr.H)
		}
		if d := sameWords(ins, ld); d != "" {
			t.Fatalf("n=%d: Insert and the loader differ: %s", n, d)
		}
	}
	for _, n := range []int{16384, 32768} {
		ins := poisoned(mem.WordsPerLine + treeWords(n))
		insertTree(mem.Direct{A: ins}, n)
		ld, lt := loadTree(t, n, 0)
		if d := sameWords(ins, ld); d != "" {
			t.Fatalf("n=%d: Insert and the loader differ: %s", n, d)
		}
		if lt.checkInvariants(mem.Direct{A: ld}) < 0 {
			t.Fatalf("n=%d: loaded tree violates the red-black invariants", n)
		}
	}
}

// TestRBLoaderWritesEachWordOnce pins what a load costs: exactly six
// stores per node and one for the header, counted through the block, which
// are as many as the words it draws from an exactly sized block, and every
// one of those words is written (none is left poisoned) — so each is
// written once. It makes no loads, which the loader cannot: it holds only a
// mem.Block, which has no Load.
func TestRBLoaderWritesEachWordOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000, 4097} {
		a, b := carved(treeWords(n), 0)
		l := NewRBLoader(b)
		for i := 0; i < n; i++ {
			l.Append(loaderKey(i), loaderVal(i))
		}
		l.Finish()
		if want := RBNodeWords*n + 1; b.Stores() != want || b.Left() != 0 {
			t.Fatalf("n=%d: %d stores and %d words left undrawn, want %d stores and none left", n, b.Stores(), b.Left(), want)
		}
		for w := mem.Addr(mem.WordsPerLine); int(w) < a.Used(); w++ {
			if a.Load(w) == unwritten {
				t.Fatalf("n=%d: word %d was drawn and never written", n, w)
			}
		}
	}
}

// TestLoadersRejectNonAscendingKeys: an equal or smaller key panics, and the
// first key may be anything, 0 included.
func TestLoadersRejectNonAscendingKeys(t *testing.T) {
	for _, second := range []uint64{5, 4, 0} {
		_, b := carved(2*treeWords(2), 0)
		rb := NewRBLoader(b)
		rb.Append(5, 0)
		mustPanic(t, "keys must ascend", func() { rb.Append(second, 0) })
		l := NewListLoader(b)
		l.Append(5, 0)
		mustPanic(t, "keys must ascend", func() { l.Append(second, 0) })
	}
	a, b := carved(treeWords(2), 0)
	rb := NewRBLoader(b)
	rb.Append(0, 1)
	rb.Append(1, 2)
	m := mem.Direct{A: a}
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
// plus ascending Inserts, for every length up to 200, and writes every word
// it draws.
func TestListLoaderMatchesInsert(t *testing.T) {
	listWords := func(n int) int { return ListHeaderWords + ListNodeWords*n }
	ins := poisoned(mem.WordsPerLine + listWords(200))
	l := NewList(mem.Direct{A: ins})
	for n := 0; n <= 200; n++ {
		if n > 0 {
			l.Insert(mem.Direct{A: ins}, loaderKey(n-1), loaderVal(n-1))
		}
		ld, blk := carved(listWords(n), 0)
		b := NewListLoader(blk)
		for i := 0; i < n; i++ {
			b.Append(loaderKey(i), loaderVal(i))
		}
		if got := b.Finish(); got != l {
			t.Fatalf("n=%d: loader header at %d, Insert's at %d", n, got.H, l.H)
		}
		if d := sameWords(ins, ld); d != "" || blk.Left() != 0 {
			t.Fatalf("n=%d: Insert and the loader differ: %s (%d words undrawn)", n, d, blk.Left())
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
			words := mem.WordsPerLine + 4 + 2*max(n, capacity, 2)*2
			pushed, ld := poisoned(words), poisoned(words)
			q := NewQueue(mem.Direct{A: pushed}, capacity)
			for i := 0; i < n; i++ {
				q.Push(mem.Direct{A: pushed}, loaderVal(i))
			}
			cm := &countMem{Mem: mem.Direct{A: ld}}
			if got := LoadQueue(cm, capacity, n, loaderVal); got != q {
				t.Fatalf("n=%d capacity=%d: loader header at %d, NewQueue's at %d", n, capacity, got.H, q.H)
			}
			if d := sameWords(pushed, ld); d != "" {
				t.Fatalf("n=%d capacity=%d: Push and the loader differ: %s", n, capacity, d)
			}
			if written := ld.Used() - mem.WordsPerLine; cm.loads != 0 || cm.stores > written {
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
		// Room for every op to insert a node past the loaded tree.
		extra := RBNodeWords * (len(ops)/3 + 1)
		ldA, blk := carved(treeWords(int(n)), extra)
		ins := mem.Direct{A: poisoned(mem.WordsPerLine + treeWords(int(n)))}
		b := NewRBLoader(blk)
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
		if d := sameWords(ins.A, ldA); d != "" {
			t.Fatalf("n=%d: loader and Insert differ: %s", n, d)
		}
		ld := mem.Direct{A: ldA}
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
