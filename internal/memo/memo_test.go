package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Get calls build once per key, whatever the number of callers asking at
// once, and every caller sees the value that one call built.
func TestGetBuildsOncePerKey(t *testing.T) {
	var builds atomic.Int64
	tab := New(func(k int) *int {
		builds.Add(1)
		v := k * k
		return &v
	})
	var wg sync.WaitGroup
	got := make([][]*int, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				got[g] = append(got[g], tab.Get(k))
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 16 {
		t.Errorf("build ran %d times for 16 keys", n)
	}
	for g := range got {
		for k, p := range got[g] {
			if p != got[0][k] || *p != k*k {
				t.Fatalf("caller %d got %p (%d) for key %d, caller 0 got %p", g, p, *p, k, got[0][k])
			}
		}
	}
}

// A warm Get allocates nothing: that is what per-seed callers buy.
func TestGetAllocFree(t *testing.T) {
	tab := New(func(s string) string { return s + "/fd" })
	tab.Get("replica-0")
	if avg := testing.AllocsPerRun(100, func() { tab.Get("replica-0") }); avg != 0 {
		t.Errorf("a warm Get allocates %.0f objects, want 0", avg)
	}
}
