package tm

import "github.com/stamp-go/stamp/internal/tm/trace"

// Hist is a simple exact histogram over small non-negative integers, used
// for per-transaction read/write-set sizes and barrier counts (Table VI
// reports means and 90th percentiles of these distributions).
type Hist struct {
	counts   []uint64
	overflow uint64 // values >= histCap
	n        uint64
	sum      uint64
}

// histCap bounds histogram memory; transactional set sizes beyond this are
// folded into the overflow bucket (still counted in mean as histCap).
const histCap = 1 << 16

// Add records one observation.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += uint64(v)
	if v >= histCap {
		h.overflow++
		return
	}
	if v >= len(h.counts) {
		grow := make([]uint64, v+1)
		copy(grow, h.counts)
		h.counts = grow
	}
	h.counts[v]++
}

// N returns the number of observations.
func (h *Hist) N() uint64 { return h.n }

// Mean returns the arithmetic mean (0 for an empty histogram).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the smallest value v such that at least p (0..1) of the
// observations are <= v. Overflowed observations report histCap.
func (h *Hist) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(p * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= target {
			return v
		}
	}
	return histCap
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	h.n += o.n
	h.sum += o.sum
	h.overflow += o.overflow
	if len(o.counts) > len(h.counts) {
		grow := make([]uint64, len(o.counts))
		copy(grow, h.counts)
		h.counts = grow
	}
	for v, c := range o.counts {
		h.counts[v] += c
	}
}

// BlockStats attributes transactional outcomes to one atomic-block call
// site (see NewBlock / Thread.AtomicAt). Loads and Stores count the
// barriers of committed attempts, so Loads/Commits and Stores/Commits are
// the block's mean read- and write-set sizes in barrier terms (the same
// convention as the aggregate LoadsHist/StoresHist means).
type BlockStats struct {
	Commits uint64
	Aborts  uint64
	Loads   uint64 // read barriers in committed attempts
	Stores  uint64 // write barriers in committed attempts

	// Causes breaks Aborts down by AbortCause (see RecordAbort); entries
	// sum to Aborts once the block's attempts have all completed.
	Causes [trace.NumCauses]uint64
}

// MeanLoads returns the block's mean read barriers per committed block.
func (b BlockStats) MeanLoads() float64 {
	if b.Commits == 0 {
		return 0
	}
	return float64(b.Loads) / float64(b.Commits)
}

// MeanStores returns the block's mean write barriers per committed block.
func (b BlockStats) MeanStores() float64 {
	if b.Commits == 0 {
		return 0
	}
	return float64(b.Stores) / float64(b.Commits)
}

// merge folds o into b.
func (b *BlockStats) merge(o *BlockStats) {
	b.Commits += o.Commits
	b.Aborts += o.Aborts
	b.Loads += o.Loads
	b.Stores += o.Stores
	for c := range o.Causes {
		b.Causes[c] += o.Causes[c]
	}
}

// ThreadStats accumulates one worker's transactional statistics. Workers
// update their own record without synchronization; records are merged after
// the team joins.
type ThreadStats struct {
	Starts  uint64 // atomic blocks entered
	Commits uint64 // atomic blocks committed (== Starts after completion)
	Aborts  uint64 // failed attempts (retries)

	Loads  uint64 // read barriers in committed attempts
	Stores uint64 // write barriers in committed attempts
	Wasted uint64 // barriers in aborted attempts (lost work proxy)

	TxTimeNs int64 // wall time inside Atomic, all attempts

	// Contention-manager accounting (see tm.ContentionManager).
	CMWaits      uint64 // delays applied by the policy's OnAbort hook
	CMWaitNs     int64  // time spent in those delays
	CMSerialized uint64 // escalations triggered by the serialize policy's threshold

	// Starvation-escalation accounting (see Config.StarveAfter): blocks
	// that acquired the irrevocability token, and the commits they then
	// performed alone. Escalations == EscalatedCommits on a completed run
	// (an escalated block always commits — that is the guarantee).
	Escalations      uint64
	EscalatedCommits uint64

	// Per committed transaction distributions.
	LoadsHist      Hist // read barriers
	StoresHist     Hist // write barriers
	ReadLinesHist  Hist // unique 32-byte lines read
	WriteLinesHist Hist // unique 32-byte lines written

	// AbortCauses breaks Aborts down by taxonomy cause (see RecordAbort);
	// the conformance suite asserts the entries sum to Aborts with the
	// CauseUnknown slot at zero.
	AbortCauses [trace.NumCauses]uint64

	// Conflicts is the per-thread top-K heatmap of contended locations
	// (RecordAbort feeds it; sketches merge at aggregation).
	Conflicts trace.ConflictSketch

	// Tracer is the thread's sampled event ring (nil when tracing is off;
	// see Config.NewTracer). Rings are not merged — TraceEvents collects
	// them.
	Tracer *trace.Ring

	// Blocks attributes the counters above to atomic-block call sites,
	// indexed by BlockID (grown on demand; see RecordBlock).
	Blocks []BlockStats

	_ [64]byte // pad against false sharing between worker slots
}

// blockAt returns the call site's BlockStats slot, growing Blocks on demand
// (shared by RecordBlock and RecordAbort).
func (s *ThreadStats) blockAt(b BlockID) *BlockStats {
	if int(b) >= len(s.Blocks) {
		n := NumBlocks()
		if n <= int(b) {
			n = int(b) + 1
		}
		grow := make([]BlockStats, n)
		copy(grow, s.Blocks)
		s.Blocks = grow
	}
	return &s.Blocks[b]
}

// RecordAbort attributes one failed attempt of call site b: the taxonomy
// cause (both aggregate and per block) and, when the abort has an
// identifiable location, the conflict-heatmap entry with the enemy's block
// where known. Runtimes call it once per abort inside the retry loop,
// right where they bump the aggregate Aborts counter; it does not bump
// Aborts itself.
func (s *ThreadStats) RecordAbort(b BlockID, cause trace.AbortCause, key trace.Key, blame BlockID) {
	s.AbortCauses[cause]++
	s.blockAt(b).Causes[cause]++
	s.Conflicts.Record(key, cause, int32(blame))
}

// RecordBlock attributes one committed atomic block to call site b: one
// commit, the attempt's failed tries, and the committed attempt's barrier
// counts. Runtimes call it once per completed Atomic / AtomicAt, right where
// they bump the aggregate Commits counter.
func (s *ThreadStats) RecordBlock(b BlockID, aborts, loads, stores uint64) {
	blk := s.blockAt(b)
	blk.Commits++
	blk.Aborts += aborts
	blk.Loads += loads
	blk.Stores += stores
}

// Merge folds o into s. It exists for aggregation across worker records
// (and across runs, as the benchmark driver does); workers never share a
// record during a run.
func (s *ThreadStats) Merge(o *ThreadStats) { s.merge(o) }

// merge folds o into s (used for aggregation only).
func (s *ThreadStats) merge(o *ThreadStats) {
	s.Starts += o.Starts
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Wasted += o.Wasted
	s.TxTimeNs += o.TxTimeNs
	s.CMWaits += o.CMWaits
	s.CMWaitNs += o.CMWaitNs
	s.CMSerialized += o.CMSerialized
	s.Escalations += o.Escalations
	s.EscalatedCommits += o.EscalatedCommits
	for c := range o.AbortCauses {
		s.AbortCauses[c] += o.AbortCauses[c]
	}
	s.Conflicts.Merge(&o.Conflicts)
	s.LoadsHist.Merge(&o.LoadsHist)
	s.StoresHist.Merge(&o.StoresHist)
	s.ReadLinesHist.Merge(&o.ReadLinesHist)
	s.WriteLinesHist.Merge(&o.WriteLinesHist)
	if len(o.Blocks) > len(s.Blocks) {
		grow := make([]BlockStats, len(o.Blocks))
		copy(grow, s.Blocks)
		s.Blocks = grow
	}
	for i := range o.Blocks {
		s.Blocks[i].merge(&o.Blocks[i])
	}
}

// Stats is the aggregate view over all worker slots of a system.
type Stats struct {
	Total   ThreadStats
	Threads int
}

// Aggregate merges per-thread records into a Stats value.
func Aggregate(per []*ThreadStats) Stats {
	var s Stats
	s.Threads = len(per)
	for _, t := range per {
		s.Total.merge(t)
	}
	return s
}

// BlockRow is one per-block line of a run report: the registered call-site
// name plus its attributed counters.
type BlockRow struct {
	ID   BlockID
	Name string
	BlockStats
}

// Blocks returns the per-block breakdown of the run: one row per registered
// call site with any committed blocks, in registry (registration) order.
// Rows for NoBlock appear under "(unattributed)".
func (s Stats) Blocks() []BlockRow {
	var rows []BlockRow
	for i := range s.Total.Blocks {
		b := s.Total.Blocks[i]
		if b.Commits == 0 && b.Aborts == 0 {
			continue
		}
		rows = append(rows, BlockRow{ID: BlockID(i), Name: BlockName(BlockID(i)), BlockStats: b})
	}
	return rows
}

// AbortCauses returns the aggregate per-cause abort counters, indexed by
// AbortCause (CauseNames gives the matching display names). Entries sum to
// Total.Aborts on a completed run, with the CauseUnknown slot at zero.
func (s Stats) AbortCauses() [trace.NumCauses]uint64 { return s.Total.AbortCauses }

// TopConflicts returns the run's conflict heatmap, hottest location first:
// contended addresses/stripes/lines with their abort-cause mix and the
// majority-blamed enemy block (NoBlock when no owner was identifiable).
func (s Stats) TopConflicts() []trace.ConflictRow { return s.Total.Conflicts.Top() }

// RetriesPerTx returns mean aborts per committed transaction.
func (s Stats) RetriesPerTx() float64 {
	if s.Total.Commits == 0 {
		return 0
	}
	return float64(s.Total.Aborts) / float64(s.Total.Commits)
}

// MeanLoads returns mean read barriers per committed transaction.
func (s Stats) MeanLoads() float64 { return s.Total.LoadsHist.Mean() }

// MeanStores returns mean write barriers per committed transaction.
func (s Stats) MeanStores() float64 { return s.Total.StoresHist.Mean() }

// ReadSetP90 returns the 90th percentile read-set size in 32-byte lines.
func (s Stats) ReadSetP90() int { return s.Total.ReadLinesHist.Percentile(0.90) }

// WriteSetP90 returns the 90th percentile write-set size in 32-byte lines.
func (s Stats) WriteSetP90() int { return s.Total.WriteLinesHist.Percentile(0.90) }
