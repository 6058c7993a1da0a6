// Package xrand is the repository's one seeded random stream.
//
// A run builds about seven streams (one per network for simnet's delays,
// one per replica machine, the environment, the workload, the fault plan)
// and draws a few dozen to a few hundred numbers from each. math/rand's own
// source pays a 607-word lagged-Fibonacci warm-up on every Seed —
// microseconds and 4.9 KB to produce those few numbers — so the state here
// is one uint64 (splitmix64: Steele, Lea, Flood, "Fast splittable
// pseudorandom number generators", OOPSLA 2014) and seeding it is one store.
//
// New returns a math/rand (v1) *rand.Rand over that source, not a method
// set of our own: call sites keep Intn, Float64, ExpFloat64, Perm,
// rand.NewZipf and Rand.Seed, and v1's method algorithms are frozen by the
// Go 1 compatibility promise, so a (seed, draw sequence) pair yields the
// same values on every Go release.
package xrand

import "math/rand"

// gamma is splitmix64's state increment (2^64 / φ, odd).
const gamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer: a bijection on uint64 that disperses
// related inputs. Besides finishing each draw it serves as the repository's
// integer hash step (simnet's delay-stream seed, obs's coverage
// fingerprint).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// source is a splitmix64 state. It implements rand.Source64.
type source uint64

func (s *source) Seed(seed int64) { *s = source(seed) }

func (s *source) Uint64() uint64 {
	*s += gamma
	return Mix64(uint64(*s))
}

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns a stream seeded with seed. Equal seeds yield equal streams,
// and Seed(s) on a used stream rewinds it to New(s) — what simnet.Reset
// and Renew rely on when they re-seed a recycled stream for a sweep's next
// seed.
func New(seed int64) *rand.Rand {
	s := source(seed)
	return rand.New(&s)
}

// Renew returns r rewound to New(seed), or New(seed) when r is nil: a
// recycled stream is re-seeded in place, without allocating.
func Renew(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return New(seed)
	}
	r.Seed(seed)
	return r
}
