package mem_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// newCounterSystem builds a system over a fresh arena holding one counter
// word. The arena is not returned: from here on it is reachable only
// through the system.
func newCounterSystem(t *testing.T, name string, threads int) (tm.System, mem.Addr) {
	t.Helper()
	arena := mem.NewArena(1 << 20) // 8 MiB, so each dropped one is a real unmap
	counter := arena.Alloc(1)
	sys, err := factory.New(name, tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return sys, counter
}

// TestArenaReachedThroughSystemSurvivesCollections runs collections back to
// back while workers touch an arena only through a tm.System's
// transactions, and drops each round's system (and with it the arena) for
// the cleanups to unmap while the next round runs. An arena unmapped while
// a worker could still reach it faults; a lost update shows as a wrong
// count. Meant for -race as much as for the plain run.
func TestArenaReachedThroughSystemSurvivesCollections(t *testing.T) {
	const (
		threads = 2
		perT    = 300
	)
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() {
		close(stop)
		collector.Wait()
	}()
	for _, name := range []string{"stm-norec", "stm-lazy", "htm-lazy"} {
		for r := 0; r < rounds; r++ {
			sys, counter := newCounterSystem(t, name, threads)
			thread.NewTeam(threads).Run(func(tid int) {
				th := sys.Thread(tid)
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) {
						// Round-trip a fresh block too, so the workers also
						// touch words the reservers hand out mid-run; a block
						// that reads back wrong shows in the count.
						p := tx.Alloc(6)
						tx.Store(p, uint64(i))
						tx.Store(counter, tx.Load(counter)+tx.Load(p)-uint64(i)+1)
						tx.Free(p, 6)
					})
				}
			})
			var got uint64
			sys.Thread(0).Atomic(func(tx tm.Tx) { got = tx.Load(counter) })
			if got != threads*perT {
				t.Fatalf("%s round %d: counter = %d, want %d", name, r, got, threads*perT)
			}
		}
	}
}
