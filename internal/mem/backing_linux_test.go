//go:build linux && !race

package mem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// residentMiB reads this process's resident set (VmRSS) in MiB.
func residentMiB(t *testing.T) float64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64) // "  1234 kB"
			if err != nil {
				t.Fatalf("parsing VmRSS %q: %v", rest, err)
			}
			return kb / 1024
		}
	}
	t.Skip("no VmRSS in /proc/self/status")
	return 0
}

// TestHugeArenaCostsOnlyTouchedPages: a 4 GiB arena with its first and last
// words written adds two pages to the resident set, not 4 GiB, and costs no
// zeroing pass.
func TestHugeArenaCostsOnlyTouchedPages(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a 4 GiB arena needs a 64-bit address space")
	}
	before := residentMiB(t)
	a := NewArena(1 << 29) // 4 GiB
	first, last := a.Alloc(1), Addr(a.Cap()-1)
	a.Store(first, 1)
	a.Store(last, 2)
	if a.Load(first) != 1 || a.Load(last) != 2 || a.Load(last-1) != 0 {
		t.Fatal("round trip through a 4 GiB arena failed")
	}
	if grew := residentMiB(t) - before; grew >= 64 {
		t.Fatalf("a 4 GiB arena with two words written grew VmRSS by %.1f MiB", grew)
	}
	runtime.KeepAlive(a) // measured while the arena is still mapped
}

// TestDroppedArenasAreReturned: 200 arenas of 64 MiB, each written on every
// page and then dropped, with no explicit runtime.GC(). The arenas are
// outside the Go heap, so nothing but NewArena's own collection rule frees
// them; without it the loop would hold 12.5 GiB. The loop stops at the first
// reading over the bound, so a broken rule fails fast instead of exhausting
// the host.
func TestDroppedArenasAreReturned(t *testing.T) {
	const (
		words     = 64 << 20 / 8
		boundMiB  = 1024
		pageWords = 512 // one store per 4 KiB page makes it resident
	)
	arenas := 200
	if testing.Short() {
		arenas = 40 // 2.5 GiB in all: still 2.5 times the bound
	}
	peak := 0.0
	for i := 0; i < arenas; i++ {
		a := NewArena(words)
		for w := 0; w < words; w += pageWords {
			a.Store(Addr(w), uint64(i))
		}
		if rss := residentMiB(t); rss > peak {
			peak = rss
			if peak >= boundMiB {
				t.Fatalf("VmRSS reached %.0f MiB after %d dropped 64 MiB arenas", peak, i+1)
			}
		}
	}
	t.Logf("peak VmRSS over %d arenas of 64 MiB: %.0f MiB", arenas, peak)
}

// residentPages counts the pages of a's mapping that are resident, by
// mincore(2).
func residentPages(t *testing.T, a *Arena) int {
	t.Helper()
	page := syscall.Getpagesize()
	size := (len(a.words)*8 + page - 1) &^ (page - 1)
	vec := make([]byte, size/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(unsafe.SliceData(a.words))), uintptr(size), uintptr(unsafe.Pointer(&vec[0])))
	runtime.KeepAlive(a)
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	n := 0
	for _, b := range vec {
		n += int(b & 1)
	}
	return n
}

// TestReleaseDropsResidentPages: Release of an arena written on every page
// leaves none of its pages resident, the words read zero, and the mapping
// stays valid (a read after Release does not fault, it only brings back a
// zero page).
func TestReleaseDropsResidentPages(t *testing.T) {
	const (
		words     = 8 << 20 / 8 // 8 MiB
		pageWords = 512
	)
	a := NewArena(words)
	for w := 0; w < words; w += pageWords {
		a.Store(Addr(w), uint64(w)+1)
	}
	pages := len(a.words) * 8 / syscall.Getpagesize()
	if got := residentPages(t, a); got != pages {
		t.Fatalf("%d of %d pages resident after writing every page", got, pages)
	}
	a.Release()
	if got := residentPages(t, a); got != 0 {
		t.Fatalf("%d of %d pages still resident after Release", got, pages)
	}
	for w := 0; w < words; w += pageWords {
		if v := a.Load(Addr(w)); v != 0 {
			t.Fatalf("word %d reads %d after Release, want 0", w, v)
		}
	}
}
