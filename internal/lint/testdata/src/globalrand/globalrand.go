// Package globalrand exercises the globalrand analyzer: draws from the
// shared package-level source are flagged, and so is building one of
// math/rand's own generators (fixtures load under the library's scope);
// methods on an explicit stream and the constructors that wrap one are
// the blessed pattern.
package globalrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func bad() int {
	return rand.Intn(10) // want `rand\.Intn draws from the shared global source`
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the shared global source`
}

func badSource(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // want `rand\.NewSource builds one of math/rand's own generators`
	return r.Intn(10)
}

func badSourceV2(seed uint64) uint64 {
	r := randv2.New(randv2.NewPCG(seed, seed)) // want `rand\.NewPCG builds one of math/rand's own generators`
	return r.Uint64()
}

// counter stands in for internal/xrand's source: wrapping a source of
// one's own in rand.New, and drawing from the result, is legal.
type counter uint64

func (c *counter) Seed(seed int64) { *c = counter(seed) }
func (c *counter) Int63() int64    { *c++; return int64(*c >> 1) }

func okOwnSource(seed int64) float64 {
	c := counter(seed)
	r := rand.New(&c)
	z := rand.NewZipf(r, 1.5, 1, 9)
	return r.Float64() + float64(z.Uint64())
}

func annotatedEscape() float64 {
	return rand.Float64() //xvet:ok globalrand fixture: models a sanctioned wall-side jitter draw
}
