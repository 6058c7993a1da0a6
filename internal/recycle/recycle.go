// Package recycle empties containers for reuse. A sweep worker resets its
// replica groups in place for each seed (core.Cluster.Reset), and every
// layer's Reset assigns its whole struct anew, carrying forward only
// storage: the maps and slices these helpers hand back empty.
package recycle

// Ptr returns p, or a new X when p is nil: the storage a Reset builds on.
func Ptr[X any](p *X) *X {
	if p == nil {
		return new(X)
	}
	return p
}

// Map returns m emptied, or make(M, hint) when m is nil.
func Map[M ~map[K]V, K comparable, V any](m M, hint int) M {
	if m == nil {
		return make(M, hint)
	}
	clear(m)
	return m
}

// Slice returns s at length zero with its storage kept. The elements are
// zeroed first, so the storage keeps nothing of the previous run alive.
func Slice[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}

// Len returns s at length n with its elements and storage kept, growing it
// with zero elements past its capacity. A slice of recycled objects uses
// it to keep object i at index i.
func Len[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make(S, n)
	copy(grown, s[:cap(s)])
	return grown
}
