package tm

import (
	"sync"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Flag-based conflict resolution, shared by the runtimes whose hardware (or
// hardware-like) arbitration aborts a *remote* transaction: the committer-
// wins sweeps of htm-lazy and hybrid-lazy, and htm-eager's priority kills.
// Such aborts are detected far from the conflicting access — the victim just
// polls its flag — so the killer deposits the attribution before raising it.

// KillPack encodes a flag-based kill's attribution — the killer's current
// block and the contended line — into one word, so a single atomic store
// publishes it. Bit 63 marks the word as set, distinguishing a real (block
// 0, line 0) attribution from "never written".
func KillPack(blk BlockID, line mem.Line) uint64 {
	return 1<<63 | uint64(uint32(blk)&0x7fffffff)<<32 | uint64(line)&0xffffffff
}

// KillUnpack decodes a killedBy word into the blamed block and conflict key
// (NoBlock and no key when the word was never written).
func KillUnpack(k uint64) (BlockID, ConflictKey) {
	if k == 0 {
		return NoBlock, 0
	}
	return BlockID(int32(uint32(k>>32) & 0x7fffffff)), trace.LineKey(k & 0xffffffff)
}

// Flagged is the victim half of a flag-based abort; transactions that peers
// may kill embed one.
type Flagged struct {
	// Active is true while the transaction's conflict-detection state is
	// live; killers skip inactive peers.
	Active   atomic.Bool
	aborted  atomic.Bool
	killedBy atomic.Uint64 // who flagged us and on what line (see KillPack)
}

// Flag returns f (it lets an embedding transaction satisfy Victim).
func (f *Flagged) Flag() *Flagged { return f }

// Arm clears the previous attempt's kill and opens the conflict window.
func (f *Flagged) Arm() {
	f.killedBy.Store(0)
	f.aborted.Store(false)
	f.Active.Store(true)
}

// Kill flags the transaction on behalf of a killer running block blk that
// conflicts on line l. The attribution is deposited before the flag is
// raised, so the victim's flag poll always finds it.
func (f *Flagged) Kill(blk BlockID, l mem.Line) {
	f.killedBy.Store(KillPack(blk, l))
	f.aborted.Store(true)
}

// Killed polls the flag.
func (f *Flagged) Killed() bool { return f.aborted.Load() }

// Blame stamps the pending-abort registers with cause and the attribution
// the killer deposited.
func (f *Flagged) Blame(info *AbortInfo, cause AbortCause) {
	blame, key := KillUnpack(f.killedBy.Load())
	info.Set(cause, key, blame)
}

// Victim is what a committer's sweep needs of each peer transaction.
type Victim interface {
	Flag() *Flagged
	// Touches reports whether the peer's read or write set admits line l —
	// precisely (htm-lazy's line sets) or conservatively (hybrid-lazy's
	// Bloom signatures).
	Touches(l mem.Line) bool
}

// Arbiter is the lazy runtimes' commit arbitration: conflicts are detected
// at commit by probing every active peer, and the committer wins. Commit
// atomicity versus racing read barriers uses a seqlock-style epoch: the
// committer makes the epoch odd while it probes victim sets and writes
// back; a read that overlaps an odd epoch (or observes the epoch change
// under it) is redone, so a victim can never keep a stale value without
// either being flagged or re-reading the committed one.
type Arbiter struct {
	// Parties is the runtime's thread count, which paces a read's wait for
	// an odd epoch (see thread.Waiter); the runtime sets it at construction.
	Parties int

	mu    sync.Mutex
	epoch atomic.Uint64
}

// Read is the read-barrier half of the seqlock: it returns a's value from a
// window no commit overlapped. The caller must already have published a's
// line in the set peers probe (Touches). ok is false when the transaction
// was flagged; the caller unwinds.
func (ar *Arbiter) Read(f *Flagged, arena *mem.Arena, a mem.Addr) (v uint64, ok bool) {
	w := thread.Waiter{Parties: ar.Parties}
	for {
		if f.Killed() {
			return 0, false
		}
		e := ar.epoch.Load()
		if e&1 == 1 { // a commit is being arbitrated; wait like a snooping cache
			w.Pause()
			continue
		}
		v = arena.Load(a)
		if ar.epoch.Load() == e {
			// Recheck the flag after the stable-epoch confirmation: a commit
			// that flagged us can complete entirely between the loop-top flag
			// poll and the first epoch load (flag store precedes its closing
			// epoch bump, so a stable epoch makes the flag visible here). The
			// loop-top poll alone can read a stale false and return the
			// committed value while earlier loads predate the writeback.
			return v, !f.Killed()
		}
		// A commit overlapped this window; redo so the value is either
		// pre-commit-with-visible-publication or the committed one.
	}
}

// CommitWins commits self's redo log: under the arbiter's lock it flags
// every active peer whose sets admit one of the written lines, blaming
// block blk, then writes back. It returns false, with nothing written, when
// self was itself flagged by an earlier committer.
func CommitWins[V Victim](ar *Arbiter, self V, peers []V, blk BlockID, writes []txset.Entry, arena *mem.Arena) bool {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if self.Flag().Killed() {
		return false
	}
	ar.epoch.Add(1) // odd: commit in progress
	for _, other := range peers {
		if f := other.Flag(); f == self.Flag() || !f.Active.Load() {
			continue
		}
		for _, e := range writes {
			if l := mem.LineOf(e.Addr); other.Touches(l) {
				other.Flag().Kill(blk, l)
				break
			}
		}
	}
	for _, e := range writes {
		arena.Store(e.Addr, e.Val)
	}
	ar.epoch.Add(1) // even: done
	return true
}
