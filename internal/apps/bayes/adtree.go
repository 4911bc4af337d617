package bayes

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// adtree is the cached-sufficient-statistics structure of Moore & Lee,
// with the most-common-value (MCV) optimization: at each node, for every
// remaining variable, only the subtree for the *less* common value is
// materialized; counts for the common value are derived by subtraction.
// Small nodes fall back to leaf lists of record indices.
//
// The tree lives in the arena and is immutable after Setup. Queries walk it
// through a tm.Mem: on the simulated HTMs every access is implicitly
// tracked (producing the paper's large bayes read sets and overflows), while
// the STM/hybrid learner reads it uninstrumented, matching the original
// code where adtree accesses carry no read barriers.
//
// Node layout:  [count, startVar, leafLen, ptr]
//
//	leafLen > 0: ptr addresses leafLen record-index words
//	leafLen = 0: ptr addresses (nVars-startVar) vary entries of 2 words
//	             [mcv, childAddr]; childAddr = 0 when the minority side is
//	             empty.
const (
	adCount    = 0
	adStartVar = 1
	adLeafLen  = 2
	adPtr      = 3
	adWords    = 4

	leafCutoff = 16
)

// buildADTree constructs the tree for the given record subset (indices into
// records) considering variables [startVar, nVars).
func buildADTree(m tm.Mem, records []uint64, subset []int, startVar, nVars int) mem.Addr {
	b := adBuilder{m: m, records: records, nVars: nVars}
	return b.build(subset, startVar)
}

// adBuilder is one tree build. A child's record subset — the minority side
// of its parent's split on one variable — is appended to scratch for the
// child's build and popped after it, so a build allocates no per-node
// slices (a paper-size tree has millions of nodes).
type adBuilder struct {
	m       tm.Mem
	records []uint64
	nVars   int
	scratch []int
}

func (b *adBuilder) build(subset []int, startVar int) mem.Addr {
	m := b.m
	node := m.Alloc(adWords)
	m.Store(node+adCount, uint64(len(subset)))
	m.Store(node+adStartVar, uint64(startVar))
	if len(subset) < leafCutoff || startVar >= b.nVars {
		m.Store(node+adLeafLen, uint64(len(subset)))
		leaf := m.Alloc(maxInt(len(subset), 1))
		for i, rec := range subset {
			m.Store(leaf+mem.Addr(i), uint64(rec))
		}
		m.Store(node+adPtr, uint64(leaf))
		return node
	}
	m.Store(node+adLeafLen, 0)
	vary := m.Alloc(2 * (b.nVars - startVar))
	m.Store(node+adPtr, uint64(vary))
	for j := startVar; j < b.nVars; j++ {
		ones := 0
		for _, rec := range subset {
			ones += int(b.records[rec] >> uint(j) & 1)
		}
		// Materialize the less common value's side (value 1 on a tie).
		mcv, minority, size := uint64(0), uint64(1), ones
		if ones > len(subset)-ones {
			mcv, minority, size = 1, 0, len(subset)-ones
		}
		entry := vary + mem.Addr(2*(j-startVar))
		m.Store(entry, mcv)
		if size == 0 {
			m.Store(entry+1, 0)
			continue
		}
		base := len(b.scratch)
		for _, rec := range subset {
			if b.records[rec]>>uint(j)&1 == minority {
				b.scratch = append(b.scratch, rec)
			}
		}
		child := b.build(b.scratch[base:], j+1)
		b.scratch = b.scratch[:base]
		m.Store(entry+1, uint64(child))
	}
	return node
}

// varVal is one query constraint: variable v must equal val.
type varVal struct {
	v   int
	val uint64
}

// adCountQuery returns the number of records matching cons[qi:] under node.
// cons must be sorted by variable and all constrained variables must be
// >= the node's startVar.
func adCountQuery(m tm.Mem, records []uint64, node mem.Addr, cons []varVal, qi int) int {
	if node == mem.Nil {
		return 0
	}
	if qi >= len(cons) {
		return int(m.Load(node + adCount))
	}
	leafLen := m.Load(node + adLeafLen)
	count := m.Load(node + adCount)
	if leafLen > 0 || count == 0 {
		// Leaf: scan the record list.
		leaf := mem.Addr(m.Load(node + adPtr))
		n := 0
	scan:
		for i := uint64(0); i < leafLen; i++ {
			rec := records[m.Load(leaf+mem.Addr(i))]
			for _, c := range cons[qi:] {
				if rec>>uint(c.v)&1 != c.val {
					continue scan
				}
			}
			n++
		}
		return n
	}
	startVar := int(m.Load(node + adStartVar))
	j := cons[qi].v
	entry := mem.Addr(m.Load(node+adPtr)) + mem.Addr(2*(j-startVar))
	mcv := m.Load(entry)
	child := mem.Addr(m.Load(entry + 1))
	if cons[qi].val != mcv {
		if child == mem.Nil {
			return 0
		}
		return adCountQuery(m, records, child, cons, qi+1)
	}
	// MCV side: count(node, rest) - count(minority child, rest).
	total := adCountQuery(m, records, node, cons, qi+1)
	if child == mem.Nil {
		return total
	}
	return total - adCountQuery(m, records, child, cons, qi+1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
