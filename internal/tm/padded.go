package tm

import (
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
)

// PaddedUint64 is an atomic uint64 alone on its cache line. The TL2 global
// version clock and NOrec's sequence lock are the hottest shared words in
// their systems; padding them keeps commits from false-sharing the line
// with neighboring runtime fields (per-thread slices, stat counters) that
// other cores read on their own fast paths.
type PaddedUint64 struct {
	_ [64]byte
	v atomic.Uint64
	_ [56]byte
}

// Load atomically reads the value.
func (p *PaddedUint64) Load() uint64 { return p.v.Load() }

// Store atomically writes the value.
func (p *PaddedUint64) Store(x uint64) { p.v.Store(x) }

// StoreRelease writes the value as a release (mem.StoreRelease): only the
// owner of a lock word may use it, to unlock it after its last store.
func (p *PaddedUint64) StoreRelease(x uint64) { mem.StoreRelease(&p.v, x) }

// Add atomically adds d and returns the new value.
func (p *PaddedUint64) Add(d uint64) uint64 { return p.v.Add(d) }

// CompareAndSwap atomically CASes the value.
func (p *PaddedUint64) CompareAndSwap(old, new uint64) bool {
	return p.v.CompareAndSwap(old, new)
}
