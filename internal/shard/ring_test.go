package shard

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("acct-%d", i)
	}
	return out
}

// TestRingDeterministicAndTotal compares the shared ring with one built
// afresh: construction is a pure function of the shape.
func TestRingDeterministicAndTotal(t *testing.T) {
	a := NewRing(4, 0)
	b := buildRing(4, DefaultVNodes)
	owned := make(map[int]int)
	for _, k := range keys(1000) {
		s := a.Owner(k)
		if s < 0 || s >= 4 {
			t.Fatalf("Owner(%q) = %d, out of range", k, s)
		}
		if bs := b.Owner(k); bs != s {
			t.Fatalf("two rings disagree on %q: %d vs %d", k, s, bs)
		}
		owned[s]++
	}
	for s := 0; s < 4; s++ {
		if owned[s] == 0 {
			t.Errorf("shard %d owns no keys out of 1000", s)
		}
	}
}

// TestRingBalance pins the consistent-hash distribution quality the
// shard-scaling table depends on: with the default virtual-node count no
// shard may own more than twice its fair share of a large keyspace.
func TestRingBalance(t *testing.T) {
	const n, shards = 4096, 4
	r := NewRing(shards, 0)
	owned := make(map[int]int)
	for _, k := range keys(n) {
		owned[r.Owner(k)]++
	}
	fair := n / shards
	for s := 0; s < shards; s++ {
		if owned[s] > 2*fair {
			t.Errorf("shard %d owns %d of %d keys (fair share %d): distribution too skewed", s, owned[s], n, fair)
		}
	}
}

// TestRingReshardMovesKeysOnlyToNewShard pins the consistent-hashing
// property: growing the ring by one shard never moves a key between two
// existing shards — ownership changes only toward the new shard.
func TestRingReshardMovesKeysOnlyToNewShard(t *testing.T) {
	for grow := 1; grow <= 7; grow++ {
		old := NewRing(grow, 0)
		grown := NewRing(grow+1, 0)
		moved := 0
		for _, k := range keys(2000) {
			before, after := old.Owner(k), grown.Owner(k)
			if before != after {
				moved++
				if after != grow {
					t.Fatalf("%d→%d shards: key %q moved %d→%d, not to the new shard %d",
						grow, grow+1, k, before, after, grow)
				}
			}
		}
		if moved == 0 {
			t.Errorf("%d→%d shards: no key moved to the new shard", grow, grow+1)
		}
	}
}

func TestRingRejectsEmptyRing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0, 0) did not panic")
		}
	}()
	NewRing(0, 0)
}

// TestNewRingSharedPerShape pins the ring memo: every sharded deploy asks
// for its ring, and one shape is built once per program (256 hashed
// vnode names for four shards), so a later call returns the same ring and
// allocates nothing.
func TestNewRingSharedPerShape(t *testing.T) {
	r := NewRing(4, 0)
	if NewRing(4, DefaultVNodes) != r {
		t.Error("NewRing(4, 0) and NewRing(4, DefaultVNodes) are different rings")
	}
	if NewRing(5, 0) == r || NewRing(4, 8) == r {
		t.Error("rings of different shapes are shared")
	}
	if avg := testing.AllocsPerRun(100, func() { NewRing(4, 0) }); avg != 0 {
		t.Errorf("a repeated NewRing allocates %.0f objects, want 0", avg)
	}
}
