package reduce

import (
	"xability/internal/event"
)

// SearchResult reports the outcome of an exhaustive reduction search.
type SearchResult struct {
	// Found is true when a history accepted by the predicate was reached.
	Found bool
	// Exhausted is true when the whole reachable state space was explored
	// (so Found == false is a definitive "not x-able"). When false, the
	// search hit its state budget and is inconclusive.
	Exhausted bool
	// States is the number of distinct histories visited.
	States int
	// Witness, when Found, is the accepted history.
	Witness event.History
}

// DefaultMaxStates bounds the exhaustive search. Reduction preserves or
// shrinks history length, so the state space is finite, but it can be
// factorial in the history length; the budget keeps the oracle usable in
// tests without hanging on adversarial inputs.
const DefaultMaxStates = 200_000

// Search explores the reflexive-transitive closure of ⇒ (rule 17) from h,
// breadth-first with memoization on formal history keys, and reports whether
// any reachable history satisfies accept. maxStates ≤ 0 uses
// DefaultMaxStates.
//
// This is the ground-truth engine: it takes every legal application of
// rules 18–20 at every step, as Steps enumerates them through pattern's ⊨.
// XAbleTo falls back to it on histories of up to searchCutoff (14) events;
// tests use it there to validate the greedy Normalizer.
func (n *Normalizer) Search(h event.History, accept func(event.History) bool, maxStates int) SearchResult {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	start := h.Clone()
	if accept(start) {
		return SearchResult{Found: true, Exhausted: true, States: 1, Witness: start}
	}
	visited := map[string]bool{start.Key(): true}
	queue := []event.History{start}
	states := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range Steps(n.reg, cur) {
			k := s.Result.Key()
			if visited[k] {
				continue
			}
			visited[k] = true
			states++
			if accept(s.Result) {
				return SearchResult{Found: true, Exhausted: false, States: states, Witness: s.Result}
			}
			if states >= maxStates {
				return SearchResult{Found: false, Exhausted: false, States: states}
			}
			queue = append(queue, s.Result)
		}
	}
	return SearchResult{Found: false, Exhausted: true, States: states}
}
