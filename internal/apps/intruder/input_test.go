package intruder

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
)

// TestInputDigest pins the generated input — the dictionary, every flow's
// content and attack flag, and the shuffled fragment stream — and Setup's
// arena, word for word up to its high-water mark, at the benchmark's tx-long
// size for two seeds. A generator or staging change that moves a single
// byte, RNG draw or arena word changes a digest.
func TestInputDigest(t *testing.T) {
	for _, tc := range []struct {
		seed         uint64
		input, arena uint64
	}{
		{1, 0x19e58714545d2f1a, 0x2894b5d5625f1cfd},
		{2, 0x3c5be71811534ff8, 0x119a6151644aca8e},
	} {
		a := New(Config{AttackPercent: 10, MaxPackets: 128, Flows: 2048, Seed: tc.seed})
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
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	word(uint64(len(a.dictionary)))
	for _, s := range a.dictionary {
		str(s)
	}
	word(uint64(len(a.flows)))
	for f, s := range a.flows {
		str(s)
		if a.attacked[f] {
			word(1)
		} else {
			word(0)
		}
	}
	word(uint64(len(a.packets)))
	for _, p := range a.packets {
		word(uint64(p.flow))
		word(uint64(p.frag))
		word(uint64(p.nfrag))
		str(p.data)
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
