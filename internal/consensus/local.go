package consensus

import (
	"slices"
	"sync"
)

// Local and LocalProvider are the paper's shared-memory consensus object.
// Unlike the objects of a simulated world they keep their locks: a
// provider may be shared between worlds, and callers may propose on a
// Local from raw goroutines off any clock.

// Local is a linearizable first-proposal-wins consensus object. The zero
// value is ready to use.
type Local struct {
	mu      sync.Mutex
	decided bool //xvet:durable
	value   any  //xvet:durable
}

// Propose implements Object. It is wait-free: one critical section.
func (l *Local) Propose(v any) any {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.decided {
		l.decided = true //xvet:ok durablewrite Local is the paper's assumed shared-memory object: linearizable, crash-free, nothing to persist
		l.value = v      //xvet:ok durablewrite Local is the paper's assumed shared-memory object: linearizable, crash-free, nothing to persist
	}
	return l.value
}

// Read implements Object.
func (l *Local) Read() (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.value, l.decided
}

// LocalProvider is a concurrency-safe registry of Local objects. The zero
// value is ready to use.
type LocalProvider struct {
	mu      sync.Mutex
	objects map[Key]*Local
	chunk   []Local // the unused rest of the chunk new objects are carved from
}

// NewLocalProvider returns an empty provider.
func NewLocalProvider() *LocalProvider {
	p := new(LocalProvider)
	p.Reset()
	return p
}

// Reset empties the provider, keeping the storage of its object table and
// the unused rest of its chunk, whose objects were never handed out. Every
// object it handed out before must be out of use.
func (p *LocalProvider) Reset() {
	clear(p.objects)
	*p = LocalProvider{objects: p.objects, chunk: p.chunk}
}

// Object implements Provider.
func (p *LocalProvider) Object(key Key) Object {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.objects == nil {
		p.objects = make(map[Key]*Local)
	}
	o, ok := p.objects[key]
	if !ok {
		if len(p.chunk) == 0 {
			p.chunk = new([chunkLen]Local)[:]
		}
		o, p.chunk = &p.chunk[0], p.chunk[1:]
		p.objects[key] = o
	}
	return o
}

// Keys returns the instance keys created so far in key order, for
// introspection (the cleaner's "largest defined index" scan uses Read on
// candidate keys instead, but tests want visibility). The sort keeps the
// returned order independent of Go's randomized map iteration.
func (p *LocalProvider) Keys() []Key {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Key, 0, len(p.objects))
	for k := range p.objects {
		out = append(out, k)
	}
	slices.SortFunc(out, Key.compare)
	return out
}
