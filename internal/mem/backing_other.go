//go:build !linux

package mem

// back returns n zero words from the Go heap, which reclaims them with the
// arena and counts them toward its own collection trigger.
func back(_ *Arena, n int) []uint64 { return make([]uint64, n) }

// drop is a no-op: heap words go back only when the collector frees the
// arena.
func drop([]uint64) {}
