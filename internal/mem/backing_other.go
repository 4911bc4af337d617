//go:build !linux || race

package mem

// back returns n zero words from the Go heap, which reclaims them with the
// arena and counts them toward its own collection trigger.
//
// Race-enabled builds use this backing on Linux too: the race detector
// shadows heap memory but not an anonymous mapping, so only here does it
// see arena words — and with them a Direct.Store that runs beside another
// goroutine's access.
func back(_ *Arena, n int) []uint64 { return make([]uint64, n) }

// drop is a no-op: heap words go back only when the collector frees the
// arena.
func drop([]uint64) {}
