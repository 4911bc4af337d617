package tm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// BlockID identifies one atomic-block call site for per-block statistics
// attribution (the paper's per-region breakdowns: genome's phases, the
// vacation action mix, ...). Call sites obtain a stable ID once with
// NewBlock and pass it to Thread.AtomicAt; plain Thread.Atomic attributes
// to NoBlock.
type BlockID int32

// NoBlock is the pre-registered ID every unattributed atomic block is
// accounted under, so per-block totals always sum to the aggregate counts.
const NoBlock BlockID = 0

// noBlockName is NoBlock's registry entry.
const noBlockName = "(unattributed)"

var blockReg = struct {
	sync.RWMutex
	ids   map[string]BlockID
	names []string
	ro    []bool // parallel to names: site declared read-mostly
}{
	ids:   map[string]BlockID{noBlockName: NoBlock},
	names: []string{noBlockName},
	ro:    []bool{false},
}

// roMarks is a copy of blockReg.ro, replaced whole whenever a block is
// marked, so the per-attempt BlockReadOnly lookup (stm-mv's and NOrec's
// Begin) reads one pointer instead of taking the registry lock, whose
// reader count every core would otherwise write on every begin.
var roMarks atomic.Pointer[[]bool]

// NewBlock registers an atomic-block call site under a stable name
// (conventionally "app/phase", e.g. "genome/dedup") and returns its ID.
// Registration is idempotent: the same name always yields the same ID, so
// package-level block variables stay stable across repeated app
// constructions and test runs.
func NewBlock(name string) BlockID { return newBlock(name, false) }

// NewROBlock registers an atomic-block call site like NewBlock and marks it
// read-mostly: the block's common path performs no Store, so runtimes with a
// read-optimized begin path may start its first attempt on that path —
// stm-mv's snapshot reads, and NOrec's log-free reads (no read log). The
// mark is a hint, not a contract — a marked block that does store still
// commits correctly everywhere (stm-mv falls back to its ordinary TL2-style
// write commit, NOrec to a commit from the begin snapshot), and every retry
// runs the ordinary protocol — and runtimes without a read-only path ignore
// it.
// The mark is sticky: re-registering a marked name through plain NewBlock
// (the idempotent lookup idiom) does not clear it.
func NewROBlock(name string) BlockID { return newBlock(name, true) }

func newBlock(name string, ro bool) BlockID {
	if name == "" {
		return NoBlock
	}
	blockReg.Lock()
	defer blockReg.Unlock()
	id, ok := blockReg.ids[name]
	if !ok {
		id = BlockID(len(blockReg.names))
		blockReg.ids[name] = id
		blockReg.names = append(blockReg.names, name)
		blockReg.ro = append(blockReg.ro, false)
	}
	if ro && !blockReg.ro[id] {
		blockReg.ro[id] = true
		marks := slices.Clone(blockReg.ro)
		roMarks.Store(&marks)
	}
	return id
}

// BlockReadOnly reports whether id was registered through NewROBlock (false
// for unknown IDs and NoBlock).
func BlockReadOnly(id BlockID) bool {
	marks := roMarks.Load()
	if marks == nil || id < 0 || int(id) >= len(*marks) {
		return false
	}
	return (*marks)[id]
}

// BlockName returns the registered name of id ("" for an unknown ID).
func BlockName(id BlockID) string {
	blockReg.RLock()
	defer blockReg.RUnlock()
	if id < 0 || int(id) >= len(blockReg.names) {
		return ""
	}
	return blockReg.names[id]
}

// NumBlocks returns how many block IDs are registered (including NoBlock).
func NumBlocks() int {
	blockReg.RLock()
	defer blockReg.RUnlock()
	return len(blockReg.names)
}
