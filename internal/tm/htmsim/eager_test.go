package htmsim

import (
	"fmt"
	"sync"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// BenchmarkEagerActivePeers times the readset-64r1w barrier shape (the
// benchmark module's tm.htm-eager.barrier.readset-64r1w_ns probe) on
// htm-eager while peers-1 other threads sit inside a transaction, each
// holding 64 read and 8 written lines of its own. A barrier probes every
// running peer, so this is the shape's cost as Threads grows; there are no
// conflicts.
func BenchmarkEagerActivePeers(b *testing.B) {
	for _, peers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprint(peers), func(b *testing.B) {
			arena := mem.NewArena(1 << 20)
			sys, err := NewEager(tm.Config{Arena: arena, Threads: peers})
			if err != nil {
				b.Fatal(err)
			}
			base := arena.AllocLines(64 * mem.WordsPerLine)
			var holding, done sync.WaitGroup
			release := make(chan struct{})
			for p := 1; p < peers; p++ {
				own := arena.AllocLines(72 * mem.WordsPerLine)
				holding.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					first := true
					sys.Thread(p).Atomic(func(tx tm.Tx) {
						for i := 0; i < 72; i++ {
							a := own + mem.Addr(i*mem.WordsPerLine)
							if v := tx.Load(a); i >= 64 {
								tx.Store(a, v+1)
							}
						}
						if first {
							first = false
							holding.Done()
						}
						<-release
					})
				}()
			}
			holding.Wait()
			th := sys.Thread(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Atomic(func(tx tm.Tx) {
					for i := 0; i < 64; i++ {
						tx.Load(base + mem.Addr(i))
					}
					tx.Store(base, 1)
				})
			}
			b.StopTimer()
			close(release)
			done.Wait()
		})
	}
}
