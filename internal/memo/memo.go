// Package memo keeps values that are pure functions of a small key for the
// life of the program. Parts of a deployment depend on its shape alone: a
// replica's process names, a heartbeat's boxed payload, an account's name,
// a shard ring. A Table builds each such value once and hands the same one
// to every later run, fresh or recycled, so per-seed set-up allocates none
// of it. Only immutable values belong in a Table: every caller shares them.
package memo

import "sync"

// Table memoizes build over its keys. It is safe for concurrent use; the
// key space must stay small, since entries are never evicted.
type Table[K comparable, V any] struct {
	build func(K) V
	mu    sync.RWMutex
	m     map[K]V
}

// New returns an empty table over build.
func New[K comparable, V any](build func(K) V) *Table[K, V] {
	return &Table[K, V]{build: build, m: make(map[K]V)}
}

// Get returns build(k), calling build only the first time k is asked for.
func (t *Table[K, V]) Get(k K) V {
	t.mu.RLock()
	v, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.m[k]; ok {
		return v
	}
	v = t.build(k)
	t.m[k] = v
	return v
}
