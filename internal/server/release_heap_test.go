//go:build !linux || race

package server

// releaseZeroes is false on the heap backing (other platforms, and every
// race-enabled build): Release only exhausts the arena there, and its words
// keep their values until the collector frees it.
const releaseZeroes = false
