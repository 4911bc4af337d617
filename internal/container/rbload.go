package container

import (
	"fmt"

	"github.com/stamp-go/stamp/internal/mem"
)

// RBLoader bulk-builds an RBTree from keys appended in strictly ascending
// order. The arena it leaves is word for word the one NewRBTree followed by
// the same Insert calls leaves: the same allocations in the same order, the
// same final node words and the same [root] header. What it saves is
// the work: Insert descends from the root and rewrites links and colors
// during fix-up, while the loader writes each node word exactly once, when
// the word has become final, and never loads.
//
// That is possible because an ascending Insert only ever restructures the
// right spine. The new node goes below the last spine node, and its fix-up
// walks up the spine: a red uncle — always the left child of a spine node,
// here called an open root — is recolored, and a rotation moves a spine
// node down to become its spine successor's left child. So a node's words
// become final in three steps:
//
//   - key and val at allocation;
//   - left and right when it leaves the spine: both child links are final
//     once it is its successor's left child;
//   - parent and color when it is buried below an open root. As an open
//     root only its color can change (an uncle recolor) and its parent only
//     once, in the next rotation of the spine above it — which buries it.
//
// Finish writes what is still pending: the spine nodes, their open roots
// and the header. The loader keeps only the spine in Go memory, O(log n).
//
// It builds through a mem.Block: allocations come off the block's private
// bump pointer and writes are its plain stores, and the block has no Load,
// so "never loads" is a property of the type. Like the block, the loader is
// for quiescent use only (staging, an epoch swap that holds every slot):
// the tree is unreadable until Finish returns.
type RBLoader struct {
	m     *mem.Block
	h     mem.Addr
	spine []spineNode // root first; spine[i+1] is spine[i]'s right child
	last  uint64
}

// spineNode is one right-spine node and its left child (an open root, or
// nil), with the colors their unwritten color words will get.
type spineNode struct {
	n, l  mem.Addr
	c, lc uint64
}

// NewRBLoader allocates the tree header from m as NewRBTree does; Finish
// writes it.
func NewRBLoader(m *mem.Block) RBLoader {
	return RBLoader{m: m, h: m.Alloc(1)}
}

// Append adds (k, v) as Insert would. It panics unless k is greater than
// every key appended before it.
func (b *RBLoader) Append(k, v uint64) {
	if len(b.spine) > 0 && k <= b.last {
		panic(fmt.Sprintf("container: RBLoader.Append(%d) after %d: keys must ascend", k, b.last))
	}
	b.last = k
	z := b.m.Alloc(RBNodeWords)
	b.m.Store(z+rnKey, k)
	b.m.Store(z+rnVal, v)
	b.spine = append(b.spine, spineNode{n: z, l: mem.Nil, c: red, lc: black})
	// Insert's fix-up, specialised to the spine: z = s[i] is always a right
	// child, so only the uncle recolor and the single left rotation occur.
	s := b.spine
	for i := len(s) - 1; i >= 2 && s[i-1].c == red; {
		g := i - 2 // the grandparent; s[g].l is the uncle
		if s[g].lc == red {
			s[i-1].c, s[g].lc, s[g].c = black, black, red
			i = g
			continue
		}
		b.rotate(g)
		break
	}
	b.spine[0].c = black
}

// rotate is Insert's rotateLeft of spine[g] together with the recoloring
// before it: spine[g+1] turns black and takes spine[g]'s place, and
// spine[g] turns red and becomes its left child, taking spine[g+1]'s old
// left child as its right. spine[g] leaves the spine, and both its children
// are buried.
func (b *RBLoader) rotate(g int) {
	x, y := b.spine[g], b.spine[g+1]
	b.m.Store(x.n+rnLeft, uint64(x.l))
	b.m.Store(x.n+rnRight, uint64(y.l))
	b.bury(x.l, x.lc, x.n)
	b.bury(y.l, y.lc, x.n)
	b.spine[g+1] = spineNode{n: y.n, l: x.n, c: black, lc: red}
	b.spine = append(b.spine[:g], b.spine[g+1:]...)
}

// bury writes the last two words of a node that no later append can reach.
func (b *RBLoader) bury(n mem.Addr, color uint64, parent mem.Addr) {
	if n == mem.Nil {
		return
	}
	b.m.Store(n+rnParent, uint64(parent))
	b.m.Store(n+rnColor, color)
}

// Finish writes the spine, its open roots and the header, and returns the
// tree. The loader must not be used afterwards.
func (b *RBLoader) Finish() RBTree {
	root := mem.Nil
	for i, s := range b.spine {
		parent, right := mem.Nil, mem.Nil
		if i == 0 {
			root = s.n
		} else {
			parent = b.spine[i-1].n
		}
		if i+1 < len(b.spine) {
			right = b.spine[i+1].n
		}
		b.m.Store(s.n+rnLeft, uint64(s.l))
		b.m.Store(s.n+rnRight, uint64(right))
		b.m.Store(s.n+rnParent, uint64(parent))
		b.m.Store(s.n+rnColor, s.c)
		b.bury(s.l, s.lc, s.n)
	}
	b.m.Store(b.h+rbRoot, uint64(root))
	return RBTree{H: b.h}
}
