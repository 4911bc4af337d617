package factory

import (
	"fmt"
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
)

// stormArms maps each concurrent runtime to the probability-1 arm list that
// sits on its writer commit path, so ordinary commits become impossible and
// progress requires starvation escalation. A runtime registered without an
// entry here fails the storm test loudly — every new runtime must name its
// commit-path failpoint.
var stormArms = map[string]string{
	"stm-lazy":     "tl2-lock-acquire:1",
	"stm-eager":    "tl2-lock-acquire:1",
	"stm-mv":       "tl2-lock-acquire:1",
	"stm-norec":    "norec-validate:1",
	"hybrid-lazy":  "hybrid-sig-check:1",
	"hybrid-eager": "hybrid-sig-check:1",
	"htm-lazy":     "htm-arbitrate:1",
	"htm-eager":    "htm-arbitrate:1",
}

// allSitesSpec arms every registered failpoint at a low probability — the
// package-doc invariant says no armed site may break safety on any runtime.
func allSitesSpec(seed uint64) string {
	spec := fmt.Sprintf("%d:", seed)
	for i, site := range chaos.Sites() {
		if i > 0 {
			spec += ","
		}
		spec += site.Name + ":0.02"
	}
	return spec
}

// TestChaosStormEscalation arms the writer commit path of every concurrent
// runtime with a probability-1 spurious abort: no transaction can commit the
// ordinary way, so termination itself proves the starvation escalation
// guarantee (the storm is suppressed only for irrevocable attempts). The
// run must conserve the hot counter, record escalations, and leave no abort
// unattributed.
func TestChaosStormEscalation(t *testing.T) {
	const threads = 4
	const perT = 15
	for _, name := range concurrentNames() {
		arms, ok := stormArms[name]
		if !ok {
			t.Fatalf("%s: no storm failpoint registered in stormArms — add the runtime's commit-path site", name)
		}
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				arena := mem.NewArena(1 << 12)
				hot := arena.Alloc(1)
				sys, err := New(name, tm.Config{
					Arena:       arena,
					Threads:     threads,
					Chaos:       fmt.Sprintf("%d:%s", seed, arms),
					StarveAfter: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < perT; j++ {
						th.Atomic(func(tx tm.Tx) {
							tx.Store(hot, tx.Load(hot)+1)
						})
					}
				})
				st := sys.Stats()
				if got := (mem.Direct{A: arena}).Load(hot); got != threads*perT {
					t.Fatalf("%s: hot counter = %d, want %d", name, got, threads*perT)
				}
				if st.Total.Escalations == 0 {
					t.Errorf("%s: storm terminated with zero escalations — commits leaked past the armed failpoint", name)
				}
				if st.Total.EscalatedCommits == 0 {
					t.Errorf("%s: escalations recorded but none committed irrevocably", name)
				}
				assertCauseAccounting(t, name, st)
			})
		}
	}
}

// TestChaosAllSitesSweep runs every concurrent runtime with every registered
// failpoint armed at low probability — spurious aborts, bounded stalls while
// holding protocol locks, and dropped CM waits all at once. Safety must
// hold: the counter is conserved and every abort carries a taxonomy cause.
func TestChaosAllSitesSweep(t *testing.T) {
	const threads = 8
	const perT = 150
	spec := allSitesSpec(3)
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 12)
			hot := arena.Alloc(1)
			sys, err := New(name, tm.Config{Arena: arena, Threads: threads, Chaos: spec})
			if err != nil {
				t.Fatal(err)
			}
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for j := 0; j < perT; j++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(hot, tx.Load(hot)+1)
					})
				}
			})
			st := sys.Stats()
			if got := (mem.Direct{A: arena}).Load(hot); got != threads*perT {
				t.Fatalf("%s: hot counter = %d, want %d", name, got, threads*perT)
			}
			assertCauseAccounting(t, name, st)
		})
	}
}

// TestChaosStormNoEscalationHalts is the mutation test for the escalation
// guarantee: with starvation escalation disabled (StarveAfter < 0) the same
// probability-1 storm can never commit, and the only way out is the watch —
// exactly the situation the harness progress watchdog exists for. The test
// plays the watchdog's role: halt the watch and assert every worker unwinds
// with tm.HaltSignal having committed nothing.
func TestChaosStormNoEscalationHalts(t *testing.T) {
	const threads = 4
	arena := mem.NewArena(1 << 12)
	hot := arena.Alloc(1)
	watch := tm.NewWatch(threads)
	sys, err := New("stm-lazy", tm.Config{
		Arena:       arena,
		Threads:     threads,
		Chaos:       "42:tl2-lock-acquire:1",
		StarveAfter: -1,
		Watch:       watch,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		if watch.Commits() != 0 {
			// Let the team finish; the main goroutine will fail the test.
			return
		}
		watch.Halt("liveness mutation test: no commit progress")
	}()
	halted := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(tm.HaltSignal); !ok {
					panic(r)
				}
				halted = true
			}
		}()
		team := thread.NewTeam(threads)
		team.Run(func(tid int) {
			th := sys.Thread(tid)
			th.Atomic(func(tx tm.Tx) {
				tx.Store(hot, tx.Load(hot)+1)
			})
		})
	}()
	if !halted {
		t.Fatal("storm with escalation disabled completed — a commit leaked past the probability-1 failpoint")
	}
	if got := watch.Commits(); got != 0 {
		t.Fatalf("watch counted %d commits under a full storm with escalation disabled", got)
	}
	if got := sys.Stats().Total.Escalations; got != 0 {
		t.Fatalf("StarveAfter = -1 still escalated %d times", got)
	}
}
