package container

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// RBTree is a red-black tree map with unique uint64 keys, mirroring the
// original suite's rbtree.c (vacation's database tables, intruder's session
// dictionary — "a dictionary implemented by a self-balancing tree"). The
// handle addresses a 1-word header: [root]. Like STAMP's, the tree keeps no
// element count for every Insert and Remove to write and conflict on.
// Nodes are 6 words: [key, val, left, right, parent, color].
type RBTree struct{ H mem.Addr }

// RBNodeWords is the arena footprint of one tree node, for sizing the
// blocks a tree's nodes are drawn from.
const RBNodeWords = 6

const (
	rbRoot = 0

	rnKey    = 0
	rnVal    = 1
	rnLeft   = 2
	rnRight  = 3
	rnParent = 4
	rnColor  = 5

	black = 0
	red   = 1
)

// NewRBTree allocates an empty tree.
func NewRBTree(m tm.Mem) RBTree {
	h := m.Alloc(1)
	m.Store(h+rbRoot, uint64(mem.Nil))
	return RBTree{H: h}
}

// Len counts the elements with an in-order walk: O(n), and like mem.Direct
// for quiescent use only (verification, tests).
func (t RBTree) Len(m tm.Mem) (n int) {
	t.Each(m, func(_, _ uint64) bool { n++; return true })
	return n
}

func (t RBTree) root(m tm.Mem) mem.Addr { return mem.Addr(m.Load(t.H + rbRoot)) }

// colorOf treats nil as black, per the red-black invariants.
func colorOf(m tm.Mem, n mem.Addr) uint64 {
	if n == mem.Nil {
		return black
	}
	return m.Load(n + rnColor)
}

func left(m tm.Mem, n mem.Addr) mem.Addr   { return mem.Addr(m.Load(n + rnLeft)) }
func right(m tm.Mem, n mem.Addr) mem.Addr  { return mem.Addr(m.Load(n + rnRight)) }
func parent(m tm.Mem, n mem.Addr) mem.Addr { return mem.Addr(m.Load(n + rnParent)) }

// lookup returns the node with key k, or nil.
func (t RBTree) lookup(m tm.Mem, k uint64) mem.Addr {
	n := t.root(m)
	for n != mem.Nil {
		nk := m.Load(n + rnKey)
		switch {
		case k < nk:
			n = left(m, n)
		case k > nk:
			n = right(m, n)
		default:
			return n
		}
	}
	return mem.Nil
}

// Get returns the value stored under k.
func (t RBTree) Get(m tm.Mem, k uint64) (uint64, bool) {
	n := t.lookup(m, k)
	if n == mem.Nil {
		return 0, false
	}
	return m.Load(n + rnVal), true
}

// Contains reports whether k is present.
func (t RBTree) Contains(m tm.Mem, k uint64) bool { return t.lookup(m, k) != mem.Nil }

// Update stores v under existing key k.
func (t RBTree) Update(m tm.Mem, k, v uint64) bool {
	n := t.lookup(m, k)
	if n == mem.Nil {
		return false
	}
	m.Store(n+rnVal, v)
	return true
}

func (t RBTree) rotateLeft(m tm.Mem, x mem.Addr) {
	y := right(m, x)
	yl := left(m, y)
	m.Store(x+rnRight, uint64(yl))
	if yl != mem.Nil {
		m.Store(yl+rnParent, uint64(x))
	}
	xp := parent(m, x)
	m.Store(y+rnParent, uint64(xp))
	switch {
	case xp == mem.Nil:
		m.Store(t.H+rbRoot, uint64(y))
	case x == left(m, xp):
		m.Store(xp+rnLeft, uint64(y))
	default:
		m.Store(xp+rnRight, uint64(y))
	}
	m.Store(y+rnLeft, uint64(x))
	m.Store(x+rnParent, uint64(y))
}

func (t RBTree) rotateRight(m tm.Mem, x mem.Addr) {
	y := left(m, x)
	yr := right(m, y)
	m.Store(x+rnLeft, uint64(yr))
	if yr != mem.Nil {
		m.Store(yr+rnParent, uint64(x))
	}
	xp := parent(m, x)
	m.Store(y+rnParent, uint64(xp))
	switch {
	case xp == mem.Nil:
		m.Store(t.H+rbRoot, uint64(y))
	case x == right(m, xp):
		m.Store(xp+rnRight, uint64(y))
	default:
		m.Store(xp+rnLeft, uint64(y))
	}
	m.Store(y+rnRight, uint64(x))
	m.Store(x+rnParent, uint64(y))
}

// Insert adds (k, v); it reports false if k is already present.
func (t RBTree) Insert(m tm.Mem, k, v uint64) bool {
	var p mem.Addr = mem.Nil
	n := t.root(m)
	for n != mem.Nil {
		p = n
		nk := m.Load(n + rnKey)
		switch {
		case k < nk:
			n = left(m, n)
		case k > nk:
			n = right(m, n)
		default:
			return false
		}
	}
	z := m.Alloc(RBNodeWords)
	m.Store(z+rnKey, k)
	m.Store(z+rnVal, v)
	m.Store(z+rnLeft, uint64(mem.Nil))
	m.Store(z+rnRight, uint64(mem.Nil))
	m.Store(z+rnParent, uint64(p))
	m.Store(z+rnColor, red)
	switch {
	case p == mem.Nil:
		m.Store(t.H+rbRoot, uint64(z))
	case k < m.Load(p+rnKey):
		m.Store(p+rnLeft, uint64(z))
	default:
		m.Store(p+rnRight, uint64(z))
	}
	t.insertFixup(m, z)
	return true
}

func (t RBTree) insertFixup(m tm.Mem, z mem.Addr) {
	for {
		zp := parent(m, z)
		if zp == mem.Nil || colorOf(m, zp) == black {
			break
		}
		zpp := parent(m, zp)
		if zp == left(m, zpp) {
			u := right(m, zpp)
			if colorOf(m, u) == red {
				m.Store(zp+rnColor, black)
				m.Store(u+rnColor, black)
				m.Store(zpp+rnColor, red)
				z = zpp
				continue
			}
			if z == right(m, zp) {
				z = zp
				t.rotateLeft(m, z)
				zp = parent(m, z)
				zpp = parent(m, zp)
			}
			m.Store(zp+rnColor, black)
			m.Store(zpp+rnColor, red)
			t.rotateRight(m, zpp)
		} else {
			u := left(m, zpp)
			if colorOf(m, u) == red {
				m.Store(zp+rnColor, black)
				m.Store(u+rnColor, black)
				m.Store(zpp+rnColor, red)
				z = zpp
				continue
			}
			if z == left(m, zp) {
				z = zp
				t.rotateRight(m, z)
				zp = parent(m, z)
				zpp = parent(m, zp)
			}
			m.Store(zp+rnColor, black)
			m.Store(zpp+rnColor, red)
			t.rotateLeft(m, zpp)
		}
	}
	m.Store(t.root(m)+rnColor, black)
}

// transplant replaces subtree u with subtree v (v may be nil).
func (t RBTree) transplant(m tm.Mem, u, v mem.Addr) {
	up := parent(m, u)
	switch {
	case up == mem.Nil:
		m.Store(t.H+rbRoot, uint64(v))
	case u == left(m, up):
		m.Store(up+rnLeft, uint64(v))
	default:
		m.Store(up+rnRight, uint64(v))
	}
	if v != mem.Nil {
		m.Store(v+rnParent, uint64(up))
	}
}

func (t RBTree) minimum(m tm.Mem, n mem.Addr) mem.Addr {
	for left(m, n) != mem.Nil {
		n = left(m, n)
	}
	return n
}

// Remove deletes key k, reporting whether it was present.
func (t RBTree) Remove(m tm.Mem, k uint64) bool {
	z := t.lookup(m, k)
	if z == mem.Nil {
		return false
	}
	yColor := colorOf(m, z)
	var x, xp mem.Addr
	switch {
	case left(m, z) == mem.Nil:
		x, xp = right(m, z), parent(m, z)
		t.transplant(m, z, right(m, z))
	case right(m, z) == mem.Nil:
		x, xp = left(m, z), parent(m, z)
		t.transplant(m, z, left(m, z))
	default:
		y := t.minimum(m, right(m, z))
		yColor = colorOf(m, y)
		x = right(m, y)
		if parent(m, y) == z {
			xp = y
		} else {
			xp = parent(m, y)
			t.transplant(m, y, right(m, y))
			zr := right(m, z)
			m.Store(y+rnRight, uint64(zr))
			m.Store(zr+rnParent, uint64(y))
		}
		t.transplant(m, z, y)
		zl := left(m, z)
		m.Store(y+rnLeft, uint64(zl))
		m.Store(zl+rnParent, uint64(y))
		m.Store(y+rnColor, colorOf(m, z))
	}
	if yColor == black {
		t.removeFixup(m, x, xp)
	}
	m.Free(z, RBNodeWords)
	return true
}

// removeFixup restores the red-black invariants after removing a black
// node. x may be nil, so its parent xp is tracked explicitly.
func (t RBTree) removeFixup(m tm.Mem, x, xp mem.Addr) {
	for x != t.root(m) && colorOf(m, x) == black {
		if x == left(m, xp) {
			w := right(m, xp)
			if colorOf(m, w) == red {
				m.Store(w+rnColor, black)
				m.Store(xp+rnColor, red)
				t.rotateLeft(m, xp)
				w = right(m, xp)
			}
			if colorOf(m, left(m, w)) == black && colorOf(m, right(m, w)) == black {
				m.Store(w+rnColor, red)
				x, xp = xp, parent(m, xp)
			} else {
				if colorOf(m, right(m, w)) == black {
					wl := left(m, w)
					m.Store(wl+rnColor, black)
					m.Store(w+rnColor, red)
					t.rotateRight(m, w)
					w = right(m, xp)
				}
				m.Store(w+rnColor, colorOf(m, xp))
				m.Store(xp+rnColor, black)
				wr := right(m, w)
				if wr != mem.Nil {
					m.Store(wr+rnColor, black)
				}
				t.rotateLeft(m, xp)
				x, xp = t.root(m), mem.Nil
			}
		} else {
			w := left(m, xp)
			if colorOf(m, w) == red {
				m.Store(w+rnColor, black)
				m.Store(xp+rnColor, red)
				t.rotateRight(m, xp)
				w = left(m, xp)
			}
			if colorOf(m, right(m, w)) == black && colorOf(m, left(m, w)) == black {
				m.Store(w+rnColor, red)
				x, xp = xp, parent(m, xp)
			} else {
				if colorOf(m, left(m, w)) == black {
					wr := right(m, w)
					m.Store(wr+rnColor, black)
					m.Store(w+rnColor, red)
					t.rotateLeft(m, w)
					w = left(m, xp)
				}
				m.Store(w+rnColor, colorOf(m, xp))
				m.Store(xp+rnColor, black)
				wl := left(m, w)
				if wl != mem.Nil {
					m.Store(wl+rnColor, black)
				}
				t.rotateRight(m, xp)
				x, xp = t.root(m), mem.Nil
			}
		}
	}
	if x != mem.Nil {
		m.Store(x+rnColor, black)
	}
}

// Each calls fn(key, value) in ascending key order; fn returning false
// stops the walk.
func (t RBTree) Each(m tm.Mem, fn func(k, v uint64) bool) {
	// Iterative in-order traversal with an explicit (non-arena) stack.
	var stack []mem.Addr
	n := t.root(m)
	for n != mem.Nil || len(stack) > 0 {
		for n != mem.Nil {
			stack = append(stack, n)
			n = left(m, n)
		}
		n = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(m.Load(n+rnKey), m.Load(n+rnVal)) {
			return
		}
		n = right(m, n)
	}
}

// Ceil returns the smallest key >= k and its value.
func (t RBTree) Ceil(m tm.Mem, k uint64) (key, val uint64, ok bool) {
	n := t.root(m)
	best := mem.Nil
	for n != mem.Nil {
		nk := m.Load(n + rnKey)
		switch {
		case nk == k:
			return nk, m.Load(n + rnVal), true
		case nk > k:
			best = n
			n = left(m, n)
		default:
			n = right(m, n)
		}
	}
	if best == mem.Nil {
		return 0, 0, false
	}
	return m.Load(best + rnKey), m.Load(best + rnVal), true
}

// checkInvariants verifies the red-black properties (tests only): root is
// black, no red node has a red child, and every root-to-nil path has the
// same black height. It returns the black height or -1 on violation.
func (t RBTree) checkInvariants(m tm.Mem) int {
	root := t.root(m)
	if root == mem.Nil {
		return 0
	}
	if colorOf(m, root) != black {
		return -1
	}
	var walk func(n mem.Addr) int
	walk = func(n mem.Addr) int {
		if n == mem.Nil {
			return 1
		}
		l, r := left(m, n), right(m, n)
		if colorOf(m, n) == red && (colorOf(m, l) == red || colorOf(m, r) == red) {
			return -1
		}
		if l != mem.Nil && parent(m, l) != n {
			return -1
		}
		if r != mem.Nil && parent(m, r) != n {
			return -1
		}
		lh, rh := walk(l), walk(r)
		if lh < 0 || rh < 0 || lh != rh {
			return -1
		}
		if colorOf(m, n) == black {
			return lh + 1
		}
		return lh
	}
	return walk(root)
}
