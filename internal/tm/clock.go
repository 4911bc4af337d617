package tm

import (
	"fmt"
	"sort"
	"sync/atomic"
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

// Add atomically adds d and returns the new value.
func (p *PaddedUint64) Add(d uint64) uint64 { return p.v.Add(d) }

// CompareAndSwap atomically CASes the value.
func (p *PaddedUint64) CompareAndSwap(old, new uint64) bool {
	return p.v.CompareAndSwap(old, new)
}

// VersionClock is the global version clock a TL2-style runtime snapshots at
// begin and advances at writer commit. The scheme — how (and whether) a
// commit moves the clock — is the serial point the Synchrobench-style
// protocol comparisons single out at high thread counts, so it is selected
// per run through Config.Clock (see ClockNames) rather than hard-coded.
//
// The safety contract every scheme relies on: a committer calls CommitTick
// only after acquiring every write-set lock, and publishes the returned wv
// on those locks at release. Under that contract a reader whose snapshot
// rv admits a published version (version <= rv) began after the publishing
// commit held its locks, so it can never observe a pre-commit value of
// that write set unlocked — the standard TL2 argument, which is exactly
// what makes the gv4 "share another committer's value" shortcut sound.
type VersionClock interface {
	// Name returns the registry name of the scheme (e.g. "gv1").
	Name() string
	// Begin returns the read version a starting transaction snapshots.
	Begin() uint64
	// CommitTick produces the write version for a committer whose snapshot
	// is rv, advancing the clock as the scheme prescribes. validate reports
	// whether the committer must re-validate its read set: false only when
	// the scheme can prove no other transaction committed between the
	// caller's begin and this tick (the wv == rv+1 fast path).
	CommitTick(rv uint64) (wv uint64, validate bool)
	// OnAbort lets the scheme react to an aborted attempt that began at rv.
	// gv5 advances the stuck clock here so the retry can admit versions
	// published in the current epoch; the ticking schemes do nothing.
	OnAbort(rv uint64)
	// Now returns the current clock value (a stats/test hook, not part of
	// the protocol).
	Now() uint64
}

// DefaultClock is the scheme used when Config.Clock is empty: the original
// TL2 fetch-add clock, keeping default results comparable with earlier
// revisions.
const DefaultClock = "gv1"

// clockEntry is one registered scheme.
type clockEntry struct {
	description string
	make        func() VersionClock
}

var clockRegistry = map[string]clockEntry{
	"gv1": {
		description: "fetch-add on every writer commit (TL2's original scheme; default)",
		make:        func() VersionClock { return &gv1Clock{} },
	},
	"gv4": {
		description: "pass-on-failure CAS: a failed tick adopts the winning committer's value instead of retrying",
		make:        func() VersionClock { return &gv4Clock{} },
	},
	"gv5": {
		description: "commits publish clock+1 without ticking; aborts advance the clock (near-zero clock writes, rare extra aborts)",
		make:        func() VersionClock { return &gv5Clock{} },
	},
}

// ClockNames returns every registered commit-clock scheme name, sorted.
func ClockNames() []string {
	names := make([]string, 0, len(clockRegistry))
	for n := range clockRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClockDescription returns the one-line description of a registered scheme
// (empty for unknown names).
func ClockDescription(name string) string { return clockRegistry[name].description }

// NewVersionClock validates Config.Clock against the registry and returns a
// fresh clock instance (one per system; the TL2 runtimes and stm-mv each
// own their clock). An empty
// Config.Clock selects DefaultClock.
func NewVersionClock(cfg Config) (VersionClock, error) {
	name := cfg.Clock
	if name == "" {
		name = DefaultClock
	}
	entry, ok := clockRegistry[name]
	if !ok {
		return nil, fmt.Errorf("tm: unknown clock scheme %q (known: %v)", name, ClockNames())
	}
	return entry.make(), nil
}

// gv1Clock is TL2's original global clock: every writer commit fetch-adds
// the shared word, so at high commit rates the clock line ping-pongs
// between every committing core.
type gv1Clock struct{ c PaddedUint64 }

func (g *gv1Clock) Name() string   { return "gv1" }
func (g *gv1Clock) Begin() uint64  { return g.c.Load() }
func (g *gv1Clock) Now() uint64    { return g.c.Load() }
func (g *gv1Clock) OnAbort(uint64) {}

func (g *gv1Clock) CommitTick(rv uint64) (uint64, bool) {
	wv := g.c.Add(1)
	return wv, wv != rv+1
}

// gv4Clock is TL2's GV4: one CAS attempt from the current clock value; on
// failure the committer adopts the value the winning CAS installed instead
// of retrying, so a burst of concurrent commits performs one clock write
// total. Committers sharing a wv necessarily held disjoint lock sets at
// overlapping times (both held all their locks before the clock reached
// that wv), which is why sharing is safe under the VersionClock contract.
type gv4Clock struct{ c PaddedUint64 }

func (g *gv4Clock) Name() string   { return "gv4" }
func (g *gv4Clock) Begin() uint64  { return g.c.Load() }
func (g *gv4Clock) Now() uint64    { return g.c.Load() }
func (g *gv4Clock) OnAbort(uint64) {}

func (g *gv4Clock) CommitTick(rv uint64) (uint64, bool) {
	cur := g.c.Load()
	if g.c.CompareAndSwap(cur, cur+1) {
		return cur + 1, cur != rv
	}
	// Pass on failure: another committer advanced the clock in the window
	// since our load (during which we already held every write lock), so
	// its newer value is a valid write version for us too — no retry, and
	// no clock write at all on this path.
	return g.c.Load(), true
}

// gv5Clock is TL2's GV5: writer commits publish clock+1 without moving the
// clock, so the steady-state commit path performs zero shared clock
// writes. The cost is deliberate conservatism: every location committed in
// the current epoch looks "too new" (version clock+1 > any rv <= clock)
// until some aborting reader advances the clock past it via OnAbort — the
// rare-extra-aborts trade the scheme makes for a quiet clock line.
type gv5Clock struct{ c PaddedUint64 }

func (g *gv5Clock) Name() string  { return "gv5" }
func (g *gv5Clock) Begin() uint64 { return g.c.Load() }
func (g *gv5Clock) Now() uint64   { return g.c.Load() }

func (g *gv5Clock) CommitTick(rv uint64) (uint64, bool) {
	// clock+1 is strictly newer than every snapshot taken so far; the read
	// set must always validate because peers commit without ticking.
	return g.c.Load() + 1, true
}

// OnAbort unsticks the epoch: an attempt that began at rv and aborted very
// likely tripped on a version rv+1 published by a non-ticking commit, so
// advance the clock to rv+1 (one attempt; losing the CAS means someone
// else already advanced it) and let the retry's fresh snapshot admit it.
func (g *gv5Clock) OnAbort(rv uint64) {
	g.c.CompareAndSwap(rv, rv+1)
}
