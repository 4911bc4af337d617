//go:build !linux

package mem

// back returns n zero words from the Go heap, which reclaims them with the
// arena and counts them toward its own collection trigger.
func back(_ *Arena, n int) []uint64 { return make([]uint64, n) }
