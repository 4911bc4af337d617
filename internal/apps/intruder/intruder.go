// Package intruder implements STAMP's intruder benchmark: a signature-based
// network intrusion detection system modelled on Design 5 of Haagdorens et
// al. Packets flow through three phases — capture (a shared FIFO queue),
// reassembly (a dictionary keyed by session implemented with a red-black
// tree), and detection (substring scan against the attack dictionary).
// Capture and reassembly each run as one transaction; transactions are
// short, contention is moderate-to-high (the reassembly tree rebalances),
// and a moderate fraction of total time is transactional.
package intruder

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks).
var (
	blkCapture    = tm.NewBlock("intruder/capture")
	blkReassembly = tm.NewBlock("intruder/reassembly")
	blkFlag       = tm.NewBlock("intruder/flag-attack")
)

// Config mirrors the Table IV arguments: -a (% flows with attacks),
// -l (max packets per flow), -n (flow count), -s (seed).
type Config struct {
	AttackPercent int    // -a
	MaxPackets    int    // -l
	Flows         int    // -n
	Seed          uint64 // -s
}

// packet is one generated fragment (immutable input).
type packet struct {
	flow  int32
	frag  int32
	nfrag int32
	data  string
}

// App is one intruder instance.
type App struct {
	cfg        Config
	dictionary []string  // attack signatures
	detector   *Detector // compiled Boyer–Moore–Horspool matchers
	packets    []packet  // globally shuffled fragments
	flows      []string  // full per-flow content (oracle)
	attacked   []bool    // per-flow injected-attack flag

	// Arena layout.
	capture  container.Queue  // packet indices
	sessions container.RBTree // flowId -> session record
	detected container.List   // flowId -> 1 (attack verdicts)

	// Per-thread reassembly transcripts, merged by Verify.
	reassembled [][]flowResult
}

type flowResult struct {
	flow    int32
	content string
}

// Session record layout: [received, total, fragment list header].
const (
	sesRecv  = 0
	sesTotal = 1
	sesList  = 2
	sesWords = 3
)

const (
	dictionarySize  = 16
	signatureLength = 12
	fragmentBytes   = 16
)

// alphabet is a constant so that r.Intn(len(alphabet)), inlined, divides
// by a constant: a multiply, not a 64-bit DIV per payload byte.
const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// New generates the attack dictionary, the flows (AttackPercent of which
// embed a random signature), and the shuffled fragment stream.
func New(cfg Config) *App {
	if cfg.MaxPackets < 1 {
		cfg.MaxPackets = 1
	}
	if cfg.Flows < 1 {
		cfg.Flows = 1
	}
	a := &App{cfg: cfg}
	r := rng.New(cfg.Seed ^ 0x696e7472)
	// Every string's symbols are drawn into buf, which only ever grows to
	// the longest flow; each string then costs one allocation, its own.
	var buf []byte
	randBytes := func(n int) []byte {
		buf = slices.Grow(buf[:0], n)[:n]
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		return buf
	}
	for i := 0; i < dictionarySize; i++ {
		a.dictionary = append(a.dictionary, strings.ToUpper(string(randBytes(signatureLength))))
	}
	a.detector = NewDetector(a.dictionary)
	a.flows = make([]string, cfg.Flows)
	a.attacked = make([]bool, cfg.Flows)
	nfrags := make([]int32, cfg.Flows)
	total := 0
	nAttacks := cfg.Flows * cfg.AttackPercent / 100
	for f := 0; f < cfg.Flows; f++ {
		nfrag := 1 + r.Intn(cfg.MaxPackets)
		content := randBytes(nfrag * fragmentBytes)
		if f < nAttacks {
			a.attacked[f] = true
			sig := a.dictionary[r.Intn(dictionarySize)]
			pos := r.Intn(len(content) - len(sig) + 1)
			copy(content[pos:], sig)
		}
		a.flows[f] = string(content)
		nfrags[f] = int32(nfrag)
		total += nfrag
	}
	// The fragments draw nothing from r, so they can be cut once the flows
	// are known, into a slice of exactly their number.
	a.packets = make([]packet, 0, total)
	for f, content := range a.flows {
		nfrag := nfrags[f]
		for frag := int32(0); frag < nfrag; frag++ {
			a.packets = append(a.packets, packet{
				flow:  int32(f),
				frag:  frag,
				nfrag: nfrag,
				data:  content[frag*fragmentBytes : (frag+1)*fragmentBytes],
			})
		}
	}
	r.Shuffle(len(a.packets), func(i, j int) {
		a.packets[i], a.packets[j] = a.packets[j], a.packets[i]
	})
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "intruder" }

// ArenaWords implements apps.App: the live-data estimate times a generous
// factor. Aborted attempts do not leak their allocations (each worker's
// mem.Reserver takes them back for its retry), so the factor is headroom —
// reservation chunks, session records and fragment lists — not retry churn;
// words never drawn cost only address space (mem.NewArena).
func (a *App) ArenaWords() int {
	perFlow := sesWords + 8 /* rb node */ + 2 /* list hdr */ + 3
	perPkt := 3 /* list node */
	live := 4 + len(a.packets) + a.cfg.Flows*perFlow + len(a.packets)*perPkt + a.cfg.Flows*4
	return live*24 + 1<<18
}

// Setup implements apps.App: loads the capture queue with every fragment.
func (a *App) Setup(ar *mem.Arena) {
	d := mem.Direct{A: ar}
	a.capture = container.NewQueue(d, len(a.packets)+1)
	for i := range a.packets {
		a.capture.Push(d, uint64(i))
	}
	a.sessions = container.NewRBTree(d)
	a.detected = container.NewList(d)
	a.reassembled = nil
}

// Run implements apps.App: each thread loops capture -> reassembly ->
// detection until the stream is drained.
func (a *App) Run(sys tm.System, team *thread.Team) {
	a.reassembled = make([][]flowResult, team.N())
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		// The three atomic blocks are built once per worker and exchange
		// their operands through these variables, so a packet costs no
		// closure allocations and the Go collector stays out of the timed
		// region as far as the application's own data allows.
		var (
			pktIdx    int
			pkt       *packet
			completed []int // packet indices in fragment order
		)
		capture := func(tx tm.Tx) {
			pktIdx = -1
			if v, ok := a.capture.Pop(tx); ok {
				pktIdx = int(v)
			}
		}
		flag := func(tx tm.Tx) { a.detected.Insert(tx, uint64(pkt.flow), 1) }
		reassemble := func(tx tm.Tx) {
			completed = completed[:0]
			sesA, ok := a.sessions.Get(tx, uint64(pkt.flow))
			var ses mem.Addr
			if !ok {
				ses = tx.Alloc(sesWords)
				tx.Store(ses+sesRecv, 0)
				tx.Store(ses+sesTotal, uint64(pkt.nfrag))
				tx.Store(ses+sesList, uint64(container.NewList(tx).H))
				a.sessions.Insert(tx, uint64(pkt.flow), uint64(ses))
			} else {
				ses = mem.Addr(sesA)
			}
			frags := container.List{H: mem.Addr(tx.Load(ses + sesList))}
			if !frags.Insert(tx, uint64(pkt.frag), uint64(pktIdx)) {
				return // duplicate fragment (cannot happen with our generator)
			}
			recv := tx.Load(ses+sesRecv) + 1
			tx.Store(ses+sesRecv, recv)
			if recv == tx.Load(ses+sesTotal) {
				frags.Each(tx, func(_, v uint64) bool {
					completed = append(completed, int(v))
					return true
				})
				a.sessions.Remove(tx, uint64(pkt.flow))
			}
		}
		for {
			// Phase 1: capture (one transaction).
			th.AtomicAt(blkCapture, capture)
			if pktIdx < 0 {
				return // stream drained; every enqueued fragment is handled
			}
			pkt = &a.packets[pktIdx]

			// Phase 2: reassembly (one transaction). If the fragment
			// completes its session, collect the fragment list for decoding.
			th.AtomicAt(blkReassembly, reassemble)
			if len(completed) == 0 {
				continue
			}

			// Phase 3: detection (non-transactional scan, then one
			// transaction to publish the verdict).
			var sb strings.Builder
			for _, pi := range completed {
				sb.WriteString(a.packets[pi].data)
			}
			content := sb.String()
			a.reassembled[tid] = append(a.reassembled[tid], flowResult{flow: pkt.flow, content: content})
			if a.detector.Match(content) {
				th.AtomicAt(blkFlag, flag)
			}
		}
	})
}

// Verify implements apps.App: every flow reassembled exactly once and
// byte-identical to its source, and the detected set equals the injected
// attack set.
func (a *App) Verify(ar *mem.Arena) error {
	d := mem.Direct{A: ar}
	seen := make(map[int32]string, a.cfg.Flows)
	for _, results := range a.reassembled {
		for _, res := range results {
			if _, dup := seen[res.flow]; dup {
				return fmt.Errorf("intruder: flow %d reassembled twice", res.flow)
			}
			seen[res.flow] = res.content
		}
	}
	if len(seen) != a.cfg.Flows {
		return fmt.Errorf("intruder: %d flows reassembled, want %d", len(seen), a.cfg.Flows)
	}
	for f, want := range a.flows {
		if got := seen[int32(f)]; got != want {
			return fmt.Errorf("intruder: flow %d reassembled incorrectly", f)
		}
	}
	if a.sessions.Len(d) != 0 {
		return fmt.Errorf("intruder: %d sessions left in the reassembly tree", a.sessions.Len(d))
	}
	var gotAttacks []int
	a.detected.Each(d, func(k, _ uint64) bool {
		gotAttacks = append(gotAttacks, int(k))
		return true
	})
	var wantAttacks []int
	for f, att := range a.attacked {
		if att {
			wantAttacks = append(wantAttacks, f)
		}
	}
	sort.Ints(gotAttacks)
	if len(gotAttacks) != len(wantAttacks) {
		return fmt.Errorf("intruder: detected %d attacks, injected %d", len(gotAttacks), len(wantAttacks))
	}
	for i := range wantAttacks {
		if gotAttacks[i] != wantAttacks[i] {
			return fmt.Errorf("intruder: attack set mismatch at %d: %d != %d", i, gotAttacks[i], wantAttacks[i])
		}
	}
	return nil
}
