package tm

import (
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/thread"
)

// backoffAborts is the abort count after which the delay-based contention
// managers (randlin, expo, karma) start delaying: the paper's 3.
const backoffAborts = 3

// backoffUnit is the spin-loop budget per abort past the threshold for the
// delay-based contention managers (see cm.go). Each iteration is an atomic
// load (~a few ns), so the maximum delay stays in the microsecond range for
// realistic abort counts, like the paper's scheme.
const backoffUnit = 1500

var spinSink atomic.Uint64

// Spin busy-waits for roughly n atomic-load iterations. A busy wait (rather
// than time.Sleep) models processor backoff: the thread burns cycles without
// giving up its core, and sub-microsecond delays are actually achievable.
// Every 1024 iterations it yields to the scheduler so that waiting makes
// progress even when goroutines outnumber cores (notably single-CPU hosts,
// where a pure busy wait would block the victim it is waiting for).
func Spin(n int) {
	var w thread.Waiter // no party count: every pause yields
	for i := 0; i < n; i++ {
		if i&1023 == 1023 {
			w.Pause()
		}
		_ = spinSink.Load()
	}
}
