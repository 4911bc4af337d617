// Package genome implements STAMP's genome benchmark: gene sequencing by
// overlap assembly. Phase 1 deduplicates the sampled DNA segments into a
// transactional hash set; phase 2 matches segment ends by decreasing overlap
// length using Rabin–Karp hashing, linking matches transactionally; phase 3
// walks the resulting chain to rebuild the gene. Transactions are of
// moderate length with moderate read/write sets, almost all of the
// execution is transactional, and contention is low.
package genome

import (
	"fmt"
	"strings"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks). The
// publish and link phases are read-mostly — most attempts bail out after a
// few loads (already matched, no hash hit, failed string confirm) without
// storing — so they carry the read-only mark and begin on stm-mv's
// zero-abort snapshot path; the attempts that do store fall through to the
// write-path commit.
var (
	blkDedup   = tm.NewBlock("genome/dedup-insert")
	blkPublish = tm.NewROBlock("genome/publish-ends")
	blkLink    = tm.NewROBlock("genome/link-overlap")
)

// Config mirrors the Table IV arguments: -g (gene length), -s (segment
// length), -n (segment count).
type Config struct {
	GeneLength    int // -g
	SegmentLength int // -s
	Segments      int // -n
	Seed          uint64
}

// App is one genome instance.
type App struct {
	cfg      Config
	gene     string
	segments []string // sampled segments (with duplicates), immutable

	// Unique segments after phase 1 (filled during Run; Go-side mirrors of
	// arena decisions, one slot per thread merged at the barrier).
	unique []int // segment indices

	// Arena layout.
	dedup    container.Hashtable // content hash -> segment index
	links    mem.Addr            // per unique slot: [successor+1, startLinked, endLinked]
	uniqueAt mem.Addr            // arena copy of the unique ids (for link slots)

	result string
}

const (
	linkSucc  = 0 // successor unique-slot + 1 (0 = none)
	linkStart = 1 // this segment's start is matched (has predecessor)
	linkEnd   = 2 // this segment's end is matched (has successor)
	linkHead  = 3 // chain head slot + 1 (valid at the chain's tail)
	linkTail  = 4 // chain tail slot + 1 (valid at the chain's head)
	linkWords = 5
)

var nucleotides = []byte("ACGT")

// New generates the gene and samples its segments. Every start position is
// guaranteed to be sampled at least once (all Table IV configs oversample
// heavily: n >> g-s+1), so assembly can always reconstruct the full gene.
func New(cfg Config) *App {
	if cfg.SegmentLength < 2 {
		cfg.SegmentLength = 2
	}
	if cfg.GeneLength < cfg.SegmentLength {
		cfg.GeneLength = cfg.SegmentLength
	}
	positions := cfg.GeneLength - cfg.SegmentLength + 1
	if cfg.Segments < positions {
		cfg.Segments = positions
	}
	r := rng.New(cfg.Seed ^ 0x67656e6f6d65)
	var sb strings.Builder
	for i := 0; i < cfg.GeneLength; i++ {
		sb.WriteByte(nucleotides[r.Intn(4)])
	}
	a := &App{cfg: cfg, gene: sb.String()}
	a.segments = make([]string, cfg.Segments)
	for i := 0; i < positions; i++ { // guaranteed coverage
		a.segments[i] = a.gene[i : i+cfg.SegmentLength]
	}
	for i := positions; i < cfg.Segments; i++ {
		p := r.Intn(positions)
		a.segments[i] = a.gene[p : p+cfg.SegmentLength]
	}
	r.Shuffle(len(a.segments), func(i, j int) {
		a.segments[i], a.segments[j] = a.segments[j], a.segments[i]
	})
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "genome" }

// Gene returns the source gene (for tests).
func (a *App) Gene() string { return a.gene }

// ArenaWords implements apps.App. Includes abort-retry allocation churn
// (aborted attempts leak their node allocations, like STAMP's tmalloc).
func (a *App) ArenaWords() int {
	n := a.cfg.Segments
	// dedup table (buckets + nodes), link slots, per-round match tables.
	perRound := 3 + n/4 + 1 + (n+1)*4 // header + buckets + node slack
	return (3+n+8*n+linkWords*n+n)*6 + a.cfg.SegmentLength*perRound*2 + 1<<16
}

// hash64 is FNV-1a over a segment substring.
func hash64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Setup implements apps.App.
func (a *App) Setup(ar *mem.Arena) {
	d := mem.Direct{A: ar}
	a.dedup = container.NewHashtable(d, maxInt(a.cfg.Segments/4, 16))
	a.links = ar.Alloc(linkWords * a.cfg.Segments)
	a.uniqueAt = ar.Alloc(1)
	a.unique = nil
	a.result = ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Run implements apps.App.
func (a *App) Run(sys tm.System, team *thread.Team) {
	n := len(a.segments)
	direct := mem.Direct{A: sys.Arena()}
	perThreadUnique := make([][]int, team.N())

	team.Run(func(tid int) {
		th := sys.Thread(tid)
		lo, hi := tid*n/team.N(), (tid+1)*n/team.N()

		// Phase 1: deduplicate segments into the shared hash set. Equal
		// content hashes are treated as equal content (64-bit FNV over
		// <=64-nt strings; collisions are astronomically unlikely and would
		// be caught by Verify).
		for i := lo; i < hi; i++ {
			i := i
			h := hash64(a.segments[i])
			inserted := false
			th.AtomicAt(blkDedup, func(tx tm.Tx) {
				inserted = a.dedup.Insert(tx, h, uint64(i))
			})
			if inserted {
				perThreadUnique[tid] = append(perThreadUnique[tid], i)
			}
		}
		team.Barrier().Wait()

		// Merge the unique list (master) so phase 2 has a dense indexing,
		// and initialize each unique segment as its own one-element chain.
		if tid == 0 {
			for _, list := range perThreadUnique {
				a.unique = append(a.unique, list...)
			}
			for s := range a.unique {
				slot := a.links + mem.Addr(linkWords*s)
				direct.Store(slot+linkHead, uint64(s)+1)
				direct.Store(slot+linkTail, uint64(s)+1)
			}
		}
		team.Barrier().Wait()

		// Phase 2: match ends by decreasing overlap. For each overlap
		// length L, publish unmatched ends keyed by suffix hash, then link
		// unmatched starts whose prefix hash hits — re-validating the links
		// transactionally. Hashes are Rabin–Karp rolling hashes updated in
		// O(1) per round per segment.
		u := len(a.unique)
		segLen := a.cfg.SegmentLength
		ulo, uhi := tid*u/team.N(), (tid+1)*u/team.N()
		prefs := make([]prefixRoller, uhi-ulo)
		sufs := make([]suffixRoller, uhi-ulo)
		for s := ulo; s < uhi; s++ {
			seg := a.segments[a.unique[s]]
			prefs[s-ulo] = newPrefixRoller(seg, segLen-1)
			sufs[s-ulo] = newSuffixRoller(seg, segLen-1)
		}
		for L := segLen - 1; L >= 1; L-- {
			// Build: one shared table per round, created by the master.
			if tid == 0 {
				t := container.NewHashtable(direct, maxInt(u/4, 16))
				direct.Store(a.uniqueAt, uint64(t.H))
			}
			team.Barrier().Wait()
			table := container.Hashtable{H: mem.Addr(direct.Load(a.uniqueAt))}

			for s := ulo; s < uhi; s++ {
				slot := a.links + mem.Addr(linkWords*s)
				sufHash := sufs[s-ulo].hash()
				th.AtomicAt(blkPublish, func(tx tm.Tx) {
					if tx.Load(slot+linkEnd) != 0 {
						return // already matched at a longer overlap
					}
					table.Insert(tx, sufHash, uint64(s))
				})
			}
			team.Barrier().Wait()

			for s := ulo; s < uhi; s++ {
				seg := a.segments[a.unique[s]]
				slot := a.links + mem.Addr(linkWords*s)
				preHash := prefs[s-ulo].hash()
				th.AtomicAt(blkLink, func(tx tm.Tx) {
					if tx.Load(slot+linkStart) != 0 {
						return
					}
					otherU, ok := table.Get(tx, preHash)
					if !ok {
						return
					}
					o := int(otherU)
					if o == s {
						return // self-overlap
					}
					oSlot := a.links + mem.Addr(linkWords*o)
					if tx.Load(oSlot+linkEnd) != 0 {
						return // the candidate's end got matched meanwhile
					}
					// Confirm the overlap on the actual strings (hashes can
					// collide across rounds).
					oSeg := a.segments[a.unique[o]]
					if oSeg[segLen-L:] != seg[:L] {
						return
					}
					// Cycle guard, as in the original sequencer's construct-
					// entry chains: o is the tail of its chain, s the head
					// of its own; refuse to link a chain back onto itself.
					headA := tx.Load(oSlot + linkHead)
					if headA == uint64(s)+1 {
						return
					}
					tailB := tx.Load(slot + linkTail)
					tx.Store(oSlot+linkEnd, 1)
					tx.Store(oSlot+linkSucc, uint64(s)+1)
					tx.Store(slot+linkStart, 1)
					// Splice the chain metadata: the merged chain's tail
					// learns its new head, and vice versa.
					tx.Store(a.links+mem.Addr(linkWords*int(tailB-1))+linkHead, headA)
					tx.Store(a.links+mem.Addr(linkWords*int(headA-1))+linkTail, tailB)
				})
			}
			if L > 1 {
				for i := range prefs {
					prefs[i].shrink()
					sufs[i].shrink()
				}
			}
			team.Barrier().Wait()
		}

		// Phase 3: single-thread chain walk to rebuild the gene.
		if tid == 0 {
			a.result = a.assemble(direct)
		}
	})
}

// assemble follows the successor links from the unique segment with an
// unmatched start, concatenating the non-overlapping tails.
func (a *App) assemble(d mem.Direct) string {
	u := len(a.unique)
	segLen := a.cfg.SegmentLength
	start := -1
	for s := 0; s < u; s++ {
		if d.Load(a.links+mem.Addr(linkWords*s)+linkStart) == 0 {
			if start != -1 {
				return "" // more than one chain: assembly failed
			}
			start = s
		}
	}
	if start == -1 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(a.segments[a.unique[start]])
	prev := a.segments[a.unique[start]]
	cur := start
	for steps := 0; steps <= u; steps++ {
		succ := d.Load(a.links + mem.Addr(linkWords*cur) + linkSucc)
		if succ == 0 {
			return sb.String()
		}
		cur = int(succ - 1)
		seg := a.segments[a.unique[cur]]
		// Overlap length: longest suffix of prev equal to prefix of seg.
		overlap := 0
		for L := segLen - 1; L >= 1; L-- {
			if prev[segLen-L:] == seg[:L] {
				overlap = L
				break
			}
		}
		sb.WriteString(seg[overlap:])
		prev = seg
	}
	return "" // cycle
}

// Verify implements apps.App: the assembled string must equal the gene.
func (a *App) Verify(*mem.Arena) error {
	if a.result == "" {
		return fmt.Errorf("genome: assembly produced no (or an ambiguous) chain")
	}
	if a.result != a.gene {
		return fmt.Errorf("genome: assembled %d nt != source gene %d nt", len(a.result), len(a.gene))
	}
	return nil
}
