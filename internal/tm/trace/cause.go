// Package trace is the observability layer under the TM runtimes: the
// closed abort-cause taxonomy every runtime stamps its aborts with, the
// per-thread top-K conflict sketches behind the "hottest addresses" table,
// and the sampled per-thread event rings behind the Chrome-trace exporter.
// It sits below package tm (it imports nothing from the TM layer) so the
// runtime subpackages and tm itself can both use it; tm re-exports the
// application-facing names (tm.AbortCause, tm.ConflictRow, ...).
package trace

// AbortCause classifies why one transactional attempt failed. The taxonomy
// is closed: every abort site in every runtime stamps exactly one cause, and
// the conformance suite asserts that per-cause sums equal the aggregate
// abort counter with CauseUnknown at zero — an unknown-cause abort is a
// runtime bug, not a reporting gap.
type AbortCause uint8

const (
	// CauseUnknown is the reset value; a nonzero counter under it means an
	// abort site forgot to stamp a cause.
	CauseUnknown AbortCause = iota
	// CauseReadValidation is a read-set validation failure: a TL2 load or
	// commit found a stripe versioned past the transaction's snapshot.
	CauseReadValidation
	// CauseStripeLockBusy is a TL2 reader aborted at a stripe lock held by a
	// committing (lazy) or running (eager) writer.
	CauseStripeLockBusy
	// CauseSeqChanged is a NOrec value-validation failure: the global
	// sequence lock moved and some read-set value no longer matches memory.
	CauseSeqChanged
	// CauseWriteWrite is a writer-writer collision: a TL2 store or commit
	// lost a stripe to another writer (lock held, stale version, or a lost
	// acquisition race).
	CauseWriteWrite
	// CauseSignatureConflict is a Bloom-signature hit on the hybrid systems
	// or the eager HTM's overflow path (conservative: includes the false
	// positives the paper attributes to signatures).
	CauseSignatureConflict
	// CauseHTMConflict is a precise line conflict on the simulated HTMs:
	// committer-wins arbitration (lazy) or a requester-loses hit in a
	// peer's line sets at access time (eager).
	CauseHTMConflict
	// CauseHTMCapacity is a speculative-buffer overflow on the lazy HTM
	// (capacity or associativity); the next attempt runs serialized.
	CauseHTMCapacity
	// CauseCMKill is an abort forced by arbitration: a higher-priority
	// transaction flagged this one (the eager HTM's priority escape).
	CauseCMKill
	// CauseExplicitRetry is an application-raised Tx.Restart (TM_RESTART).
	CauseExplicitRetry
	// CauseMVVersionMissing is a multi-version ring overflow: a snapshot
	// reader's begin timestamp predates every version of a location still
	// retained in its stripe's bounded ring (stm-mv; the ring is sized by
	// tm.Config.MVVersions). The retry begins with a fresh snapshot.
	CauseMVVersionMissing
	// CauseKilledForIrrevocable is an attempt that aborted itself to yield
	// to a starving transaction escalating to irrevocable mode (the
	// guaranteed-progress fallback; see tm.Config.StarveAfter). The
	// escalator drains in-flight peers, runs alone, and must commit; the
	// displaced victims retry once it releases the irrevocability token.
	CauseKilledForIrrevocable
	// CauseAllocExhausted is a tx.Alloc that found the arena (and the
	// thread's recycling free lists) out of capacity. The attempt aborts
	// once with this cause for the taxonomy's sake, then the block unwinds
	// with a typed failure (tm.AllocFailure → mem.ErrArenaFull) instead of
	// retrying — exhaustion is not cured by optimism. The chaos failpoint
	// "alloc-exhaust" injects the abort spuriously (without the unwind), so
	// the recovery path is deterministically testable.
	CauseAllocExhausted

	// NumCauses bounds the per-cause counter arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseUnknown:              "unknown",
	CauseReadValidation:       "read-validation",
	CauseStripeLockBusy:       "stripe-lock-busy",
	CauseSeqChanged:           "seq-changed",
	CauseWriteWrite:           "write-write",
	CauseSignatureConflict:    "signature-conflict",
	CauseHTMConflict:          "htm-conflict",
	CauseHTMCapacity:          "htm-capacity",
	CauseCMKill:               "cm-kill",
	CauseExplicitRetry:        "explicit-retry",
	CauseMVVersionMissing:     "mv-version-missing",
	CauseKilledForIrrevocable: "killed-for-irrevocable",
	CauseAllocExhausted:       "alloc-exhausted",
}

// String returns the registry name of the cause (e.g. "write-write").
func (c AbortCause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// CauseNames returns every cause name in enum order, CauseUnknown first.
func CauseNames() []string {
	names := make([]string, NumCauses)
	copy(names, causeNames[:])
	return names
}
