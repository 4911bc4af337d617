// Package stamp is a from-scratch Go reproduction of STAMP — the Stanford
// Transactional Applications for Multi-Processing benchmark suite (Cao Minh,
// Chung, Kozyrakis, Olukotun; IISWC 2008) — together with nine
// transactional-memory runtimes: the seven the paper evaluates, the NOrec
// STM, and a multi-version STM whose read-only transactions never abort.
//
// The package exposes three layers:
//
//   - A portable transactional-memory API (System, Thread, Tx) over a
//     word-addressed shared-memory Arena, with nine interchangeable
//     runtimes: a sequential baseline, TL2-style lazy and eager STMs,
//     "stm-norec" — NOrec with value-based validation, whose read-only
//     commits take no sequence-lock acquisition and no tick, and where a
//     block registered through NewROBlock runs its first attempt without a
//     read log — "stm-mv" — multi-version: writers keep per-stripe rings of
//     Config.MVVersions committed values, and blocks registered through
//     NewROBlock read a begin-time snapshot with zero validation and, while
//     the per-stripe ring (MVVersions) still retains the snapshot, zero
//     aborts — simulated TCC-style (lazy) and LogTM-style (eager) HTMs, and
//     SigTM-style lazy and eager hybrids. TMSystems() stays the paper's six
//     evaluated systems; Systems() lists everything registered.
//   - A transactional container library (sorted list, FIFO queue, hash
//     table, red-black tree, binary heap, vector, bitmap) that works both
//     inside transactions and with the non-transactional Direct accessor.
//   - The eight STAMP applications with their 30 Table IV configurations,
//     and the harness that regenerates the paper's Table VI
//     characterization and Figure 1 speedup curves.
//   - A serving mode (Serve, ServerOptions, RunLoad, LoadOptions; the
//     cmd/stampd daemon) that runs the vacation workload as a long-lived
//     service: a persistent arena and a fixed set of Thread slots that
//     Server.Do leases to run each request on its caller's goroutine —
//     a bounded number of callers park for a slot when all are busy, the
//     rest are shed with ErrQueueFull — client-observed p50/p99/p999
//     latency histograms and the same per-block transactional statistics
//     as batch runs.
//
// The measurement entrypoints take one consolidated Options struct —
// Run("vacation-high", Options{System: "stm-mv", Threads: 8}) — whose
// Validate reports every invalid field at once.
//
// Contention management is pluggable. Every software-managed runtime draws
// a per-thread, seeded policy from a registry — CMNames() lists "randlin"
// (the paper's randomized linear backoff, the STM/hybrid default), "expo"
// (exponential backoff), "greedy" (timestamp priority: older wins, younger
// aborts), "karma" (priority accrued across aborted attempts), and "none"
// (immediate restart, the simulated HTMs' default).
// Select one with Config.CM or the -cm flag of the commands; leave it
// empty for each runtime's historical default. Priority policies arbitrate
// at encounter-time conflict points; per-policy delay and escalation
// counts are reported in Stats.
//
// Liveness is a layer of its own, inherited by every policy and runtime:
// past Config.StarveAfter consecutive aborts a block escalates to
// irrevocable mode — it acquires a global token, drains in-flight peers,
// runs alone, and must commit
// (Stats.Escalations/EscalatedCommits; displaced victims abort with the
// "killed-for-irrevocable" cause). Deterministic fault injection
// (Config.Chaos or -chaos, spec "seed:site:prob[,...]"; ChaosSites lists
// the failpoints, -list-chaos prints them) arms spurious aborts, bounded
// lock-holding stalls, and dropped CM waits in the runtimes' conflict and
// commit paths, at zero cost when off. A progress watchdog
// (Options.ProgressTimeout or -timeout) halts a run whose commit count
// stays flat, dumps diagnostics, and fails with ErrStalled instead of
// hanging.
//
// The TL2 commit clock is TL2's own fetch-add clock, one code path for
// stm-lazy, stm-eager and stm-mv. The TM hot path's other shared serial
// points are kept small: transactional allocation draws from
// thread-private, line-aligned reservation chunks (one contended atomic
// per chunk instead of per tx.Alloc), and the TL2 stripe-lock table is
// sized from the arena instead of a fixed 8 MiB. Allocation is
// transactional in both directions: tx.Free defers to commit and feeds
// per-thread free lists, aborted attempts' allocations are reclaimed, and
// abandoned chunk tails are retired, so balanced churn runs at a bounded
// arena high-water where the original suite's tmalloc leaked every free.
// Arena exhaustion is typed and recoverable, not a panic: tx.Alloc aborts
// with the "alloc-exhausted" cause and the run fails with an error
// matching ErrArenaFull.
//
// Statistics can be attributed per atomic-block call site: register a site
// with NewBlock and run it with Thread.AtomicAt, and Stats.Blocks() breaks
// the run down into per-block commits, aborts, mean set sizes, and abort
// causes (the paper's per-region view; cmd/stamp prints the table).
//
// Every abort is attributed to a cause from a closed taxonomy
// (AbortCause; CauseNames lists them: "unknown" — always zero on a
// healthy runtime — "read-validation", "stripe-lock-busy", "seq-changed",
// "write-write", "mv-version-missing", "signature-conflict",
// "htm-conflict", "htm-capacity", "cm-kill", "explicit-retry",
// "killed-for-irrevocable", and "alloc-exhausted"), stamped at the
// conflict site inside
// the runtime: Stats.AbortCauses() sums to exactly Total.Aborts, and the
// per-block rows carry the same breakdown. Aborts also feed a conflict
// heatmap of the hottest contended locations (Stats.TopConflicts: address,
// stripe, or line key, per-cause counts, and the majority blamed block).
// A sampled event tracer (Config.Trace, or -trace on cmd/stamp) records
// begin/abort/commit/wait events into per-thread fixed rings with zero
// allocation; WriteChromeTrace exports them as Chrome trace-event JSON
// (Perfetto-loadable; -trace-out on cmd/stamp), and harness workers carry
// pprof labels (app, system, thread) so CPU profiles slice the same way.
//
// Quick start:
//
//	arena := stamp.NewArena(1 << 16)
//	acct := arena.Alloc(1)
//	sys, _ := stamp.NewSystem("stm-lazy", stamp.Config{Arena: arena, Threads: 4, CM: "greedy"})
//	// ... from worker goroutine i:
//	sys.Thread(i).Atomic(func(tx stamp.Tx) {
//	    tx.Store(acct, tx.Load(acct)+1)
//	})
//
// See README.md for the runtime and policy rosters with quickstart command
// lines, and docs/ARCHITECTURE.md for the layer map, the transaction
// lifecycle, and where the contention-manager plug-in sits.
package stamp
