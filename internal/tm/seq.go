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
// the concurrent runtimes with a contention manager that never delays,
// never arbitrates and only credits the watchdog: Config.CM and Config.Chaos
// are validated but have nothing to act on.
func NewSeq(cfg Config) (*Seq, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime[*seqTx]{Shared: Shared{Cfg: cfg, name: "seq"}}
	rt.cmFor = func(id int, _ *ThreadStats) ContentionManager { return seqCM{watch: cfg.Watch, id: id} }
	rt.Bind(func(int) *seqTx { return &seqTx{} })
	return &Seq{rt}, nil
}

// seqCM is noneCM plus the one duty the liveness governor performs for the
// concurrent runtimes that seq still needs: crediting commits to the
// watchdog.
type seqCM struct {
	noneCM
	watch *Watch
	id    int
}

func (c seqCM) OnCommit() { c.watch.Bump(c.id) }

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
