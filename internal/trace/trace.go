// Package trace implements the hypothetical event observer of §2.2: a
// single total order over the events produced by all processes of a run.
//
// The observer is the linearization point of the model: the environment
// (internal/env) emits an action's completion event under the observer's
// lock together with the application of the action's side effect, so the
// observed total order is consistent with the order in which side effects
// actually took place.
package trace

import (
	"sync"

	"xability/internal/event"
	"xability/internal/recycle"
)

// Observer collects events in observation order. It is safe for concurrent
// use; the zero value is ready.
type Observer struct {
	mu     sync.Mutex
	events event.History
}

// New returns an empty observer.
func New() *Observer {
	o := new(Observer)
	o.Reset()
	return o
}

// Observe appends e to the history.
func (o *Observer) Observe(e event.Event) {
	o.mu.Lock()
	o.events = append(o.events, e)
	o.mu.Unlock()
}

// ObserveWith atomically runs fn and, if fn succeeds, appends e — the
// linearization primitive used by the environment to couple a side effect
// with its completion event. fn's error is returned and suppresses the
// event.
func (o *Observer) ObserveWith(e event.Event, fn func() error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	o.events = append(o.events, e)
	return nil
}

// History returns a snapshot of the observed history.
func (o *Observer) History() event.History {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.events.Clone()
}

// Len returns the number of observed events.
func (o *Observer) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.events)
}

// Reset clears the history and keeps its storage for the next one. History
// hands out clones, so no snapshot shares the storage.
func (o *Observer) Reset() {
	o.mu.Lock()
	o.events = recycle.Slice(o.events)
	o.mu.Unlock()
}
