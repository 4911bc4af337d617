package vacation

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
)

// TestInputDigest pins the generated session scripts and Setup's arena
// (NewStore's four tables), word for word up to its high-water mark, at the
// benchmark's tx-long size for two seeds. A generator or staging change
// that moves a single field, RNG draw or arena word changes a digest.
func TestInputDigest(t *testing.T) {
	for _, tc := range []struct {
		seed         uint64
		input, arena uint64
	}{
		{1, 0xf9ada4b05e131403, 0x619e0a12850d02e2},
		{2, 0x821b9b9d720e1090, 0xf873a06b9b53b6f4},
	} {
		a := New(Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
			Records: 32768, Transactions: 40000, Seed: tc.seed})
		if got := inputDigest(a); got != tc.input {
			t.Errorf("seed %d: input digest %#x, want %#x", tc.seed, got, tc.input)
		}
		ar := mem.NewArena(a.ArenaWords())
		a.Setup(ar)
		if got := arenaDigest(ar); got != tc.arena {
			t.Errorf("seed %d: staged arena digest %#x, want %#x", tc.seed, got, tc.arena)
		}
	}
}

func inputDigest(a *App) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	word(len(a.sessions))
	for _, s := range a.sessions {
		word(s.kind)
		word(s.cust)
		word(len(s.items))
		for _, it := range s.items {
			word(it.Typ)
			word(it.ID)
		}
		word(len(s.updates))
		for _, u := range s.updates {
			word(u.Typ)
			word(u.ID)
			if u.Add {
				word(1)
			} else {
				word(0)
			}
			word(u.Num)
			word(u.Price)
		}
	}
	return h.Sum64()
}

// arenaDigest hashes every word below the high-water mark, then the mark.
func arenaDigest(ar *mem.Arena) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for w := mem.Addr(0); int(w) < ar.Used(); w++ {
		binary.LittleEndian.PutUint64(buf[:], ar.Load(w))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(ar.Used()))
	h.Write(buf[:])
	return h.Sum64()
}
