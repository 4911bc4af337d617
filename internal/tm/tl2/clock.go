package tl2

import "github.com/stamp-go/stamp/internal/tm"

// Clock is TL2's global version clock (GV1 in Dice, Shalev & Shavit): a
// transaction snapshots it at begin, and every writer commit fetch-adds it
// after acquiring its write-set locks and publishes the returned wv on those
// locks at release. A reader whose snapshot rv admits a published version
// (version <= rv) therefore began after the publishing commit held its
// locks, so it can never observe a pre-commit value of that write set
// unlocked. stm-lazy, stm-eager and stm-mv each own one.
type Clock struct{ c tm.PaddedUint64 }

// Begin returns the read version a starting transaction snapshots.
func (c *Clock) Begin() uint64 { return c.c.Load() }

// CommitTick advances the clock for a committer whose snapshot is rv and
// returns its write version. validate is false only when no other commit
// ticked between the caller's begin and this tick (wv == rv+1), so the read
// set cannot have changed and needs no re-validation.
func (c *Clock) CommitTick(rv uint64) (wv uint64, validate bool) {
	wv = c.c.Add(1)
	return wv, wv != rv+1
}

// Now returns the current clock value (a stats/test hook, not part of the
// protocol).
func (c *Clock) Now() uint64 { return c.c.Load() }
