package tm

import "github.com/stamp-go/stamp/internal/mem"

// Seq is the sequential baseline system: no concurrency control at all.
// It is the denominator of every Figure 1 speedup curve ("normalized to
// sequential execution with code that does not have extra overhead from the
// annotations") and the measurement vehicle for Table VI's barrier and
// time-per-transaction proxies.
//
// Seq supports any thread count so the harness can reuse the same driver
// code, but correctness is only guaranteed at Threads == 1 (it performs no
// synchronization, exactly like the original sequential builds).
type Seq struct {
	*Runtime[*seqTx]
}

// NewSeq constructs the sequential system. It runs under the same driver as
// the concurrent runtimes with the "none" policy, no fault injector and
// starvation escalation off: Config.CM, Config.Chaos and Config.StarveAfter
// have nothing to act on. They are still checked like every runtime's:
// Validate rejects a malformed Chaos spec, and an unknown Config.CM is
// refused by resolving it in a pool that is then discarded.
func NewSeq(cfg Config) (*Seq, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := NewCMPool(cfg, DefaultCM); err != nil {
		return nil, err
	}
	cfg.StarveAfter = -1
	rt := &Runtime[*seqTx]{Shared: Shared{Cfg: cfg, name: "seq"}}
	rt.cmFor = func(int, *ThreadStats) ContentionManager { return noneCM{} }
	rt.Bind(func(int) *seqTx { return &seqTx{} })
	return &Seq{rt}, nil
}

// seqTx applies every barrier directly to the arena. A user Restart or a
// terminal allocation miss still unwinds and is accounted like any abort;
// sequential code has no conflicts, so a restart loop would be an
// application bug, but the retry semantics are honored anyway.
type seqTx struct {
	TxCore
}

func (x *seqTx) Begin(int, bool) {}
func (x *seqTx) Commit() bool    { return true }
func (x *seqTx) Rollback()       {}

func (x *seqTx) Load(a mem.Addr) uint64 {
	x.Loads++
	return x.Mem.Load(a)
}

func (x *seqTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	x.Mem.Store(a, v)
}

func (x *seqTx) EarlyRelease(mem.Addr) {}
