//go:build linux && !race

package server

// releaseZeroes reports that mem.Arena.Release returns an arena's pages to
// the kernel, so a released arena reads zero: true on the mapped backing.
const releaseZeroes = true
