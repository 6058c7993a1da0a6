package xrand

import (
	"math/rand"
	"testing"
)

// TestKnownAnswers checks the source against the reference splitmix64
// (Vigna's splitmix64.c): the first outputs for two seeds.
func TestKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}},
		{1234567, []uint64{6457827717110365317, 3203168211198807973}},
	} {
		r := New(tc.seed)
		for i, want := range tc.want {
			if got := r.Uint64(); got != want {
				t.Errorf("seed %d draw %d = %#x, want %#x", tc.seed, i, got, want)
			}
		}
	}
}

// TestSeedRewinds pins what simnet.Reset relies on: re-seeding a used
// stream makes it indistinguishable from a fresh one, through rand.Rand's
// own buffered state too (Read keeps leftover bytes between calls).
func TestSeedRewinds(t *testing.T) {
	used := New(7)
	for i := 0; i < 100; i++ {
		used.Int63()
	}
	used.Read(make([]byte, 3))
	for _, seed := range []int64{0, 1, -1, 42} {
		used.Seed(seed)
		fresh := New(seed)
		for i := 0; i < 1000; i++ {
			if a, b := used.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: re-seeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
}

// TestInt63IsTopBits pins the Source/Source64 relation math/rand assumes:
// Int63 is the top 63 bits of the same step's Uint64.
func TestInt63IsTopBits(t *testing.T) {
	a, b := source(99), source(99)
	for i := 0; i < 1000; i++ {
		if got, want := a.Int63(), int64(b.Uint64()>>1); got != want {
			t.Fatalf("draw %d: Int63 %d, Uint64>>1 %d", i, got, want)
		}
	}
}

var sink *rand.Rand

func TestAllocBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sink = New(3) }); n > 2 {
		t.Errorf("New allocates %.0f objects, want ≤ 2 (the Rand and its one-word source)", n)
	}
	r := New(3)
	draws := func() {
		r.Int63()
		r.Uint64()
		r.Intn(10)
		r.Float64()
		r.ExpFloat64()
		r.Seed(5)
	}
	if n := testing.AllocsPerRun(100, draws); n != 0 {
		t.Errorf("drawing and re-seeding allocate %.0f objects, want 0", n)
	}
}
