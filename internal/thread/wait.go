package thread

import "runtime"

// canSpin reports whether parties goroutines can all hold a P at once, read
// at wait time. It is the one rule for burning a P while waiting on a peer:
// only then is the peer running somewhere else and can release us while we
// spin. Oversubscribed (more parties than Ps, the one-P serving pool,
// GOMAXPROCS=1 CI), the peer may be waiting for this very P, and a spinning
// waiter only delays it. An unknown party count (0) never spins.
func canSpin(parties int) bool {
	return parties > 0 && parties <= runtime.GOMAXPROCS(0)
}

// waitSpins is how many failed polls a spinning Waiter absorbs before every
// further poll yields: ~10-50 µs of polling a contended word, longer than a
// NOrec writeback or a TL2 commit holds its locks.
const waitSpins = 1 << 10

// Waiter paces one wait-for-peer loop. The caller polls its condition and
// calls Pause after each failed poll:
//
//	w := thread.Waiter{Parties: cfg.Threads}
//	for !done() {
//		w.Pause()
//	}
//
// When every party can hold a P (see canSpin) the first waitSpins pauses
// return at once — the caller's own poll is the spin — and later ones
// yield; otherwise every pause yields, so the peer can run on this P. The
// party count and GOMAXPROCS are read at the first Pause, so a loop whose
// condition already holds pays nothing. The zero Waiter has no party count
// and yields on every Pause: the right pace for a delay that does not know
// whom it waits for (tm.Spin, chaos stalls).
//
// Pause is the only runtime.Gosched in the TM runtimes and this package;
// tm's TestOneYieldSite keeps it that way.
type Waiter struct {
	// Parties counts the goroutines that may hold what is awaited, the
	// waiter included (a runtime's Config.Threads).
	Parties int

	polls int
	spin  bool
}

// Pause is called once per failed poll of the awaited condition.
func (w *Waiter) Pause() {
	if w.polls == 0 {
		w.spin = canSpin(w.Parties)
	}
	w.polls++
	if w.spin && w.polls <= waitSpins {
		return
	}
	runtime.Gosched()
}

// Polls returns how many times Pause has been called.
func (w *Waiter) Polls() int { return w.polls }
