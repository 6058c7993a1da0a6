package shrink

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"xability/internal/scenario"
	"xability/internal/schedule"
)

// ShrinkLog is the machine-readable form of a MinTrace: everything a
// separate process needs to re-run the minimal counterexample exactly.
// Fault-plan ops carry closures and cannot serialize, so the artifact
// records the kept ops as (time, name) references into the scenario's
// materialized plan; Rebuild re-derives the plan by matching them against
// scenario.Get(Scenario).Materialize(Seed) — the same resolution Shrink
// itself started from, so the reconstruction is exact.
type ShrinkLog struct {
	// Scenario and Seed identify the run; Rebuild resolves Scenario
	// through the registry, so the artifact is portable to any process
	// that links the same scenarios (xsim always does).
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// DeadlineNS is the virtual-time cap (nanoseconds) the shrunk runs
	// executed under; replays reuse it so an edit-stalled await reports
	// TimedOut instead of hanging.
	DeadlineNS int64 `json:"deadline_ns"`
	// Ops lists the kept fault ops in plan order; BaseOps is the
	// materialized plan's full count.
	Ops     []OpRef `json:"ops"`
	BaseOps int     `json:"base_ops"`
	// Entries is the effective minimal schedule, verbatim — kept
	// deliveries plus the suppressed/dropped placeholders stream
	// alignment needs.
	Entries []EntryRef `json:"entries"`
	// Steps and Minimal echo the shrink's cost and certification.
	Steps   int  `json:"steps"`
	Minimal bool `json:"minimal"`
}

// OpRef names one kept fault op by firing time and name — enough to match
// it against the materialized plan, which is the only source of its
// closure.
type OpRef struct {
	AtNS int64  `json:"at_ns"`
	Name string `json:"name"`
}

// EntryRef mirrors schedule.Entry with stable JSON field names.
type EntryRef struct {
	From       string `json:"from"`
	To         string `json:"to"`
	Type       string `json:"type"`
	SendAtNS   int64  `json:"send_at_ns"`
	DeadlineNS int64  `json:"deadline_ns"`
	Verdict    int    `json:"verdict"`
}

// Artifact converts the minimized trace into its serializable form.
func (m MinTrace) Artifact() ShrinkLog {
	s := ShrinkLog{
		Scenario:   m.Scenario,
		Seed:       m.Seed,
		DeadlineNS: int64(m.Deadline),
		BaseOps:    m.BaseOps,
		Steps:      m.Steps,
		Minimal:    m.Minimal,
	}
	for _, op := range m.Plan.Ops() {
		s.Ops = append(s.Ops, OpRef{AtNS: int64(op.At), Name: op.Name})
	}
	for _, e := range m.Log.Entries() {
		s.Entries = append(s.Entries, EntryRef{
			From: e.From, To: e.To, Type: e.Type,
			SendAtNS: int64(e.SendAt), DeadlineNS: int64(e.Deadline),
			Verdict: int(e.Verdict),
		})
	}
	return s
}

// WriteJSON writes the artifact as indented JSON. The encoding is
// deterministic (struct field order, no maps), so equal shrinks produce
// byte-equal artifacts.
func (m MinTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Artifact())
}

// LoadShrinkLog parses an artifact written by WriteJSON.
func LoadShrinkLog(r io.Reader) (*ShrinkLog, error) {
	var s ShrinkLog
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("shrink: parse artifact: %w", err)
	}
	if s.Scenario == "" {
		return nil, fmt.Errorf("shrink: artifact names no scenario")
	}
	return &s, nil
}

// Rebuild reconstructs the runnable (scenario, replay) pair from the
// artifact: the registered scenario materialized on the recorded seed, its
// plan cut down to the kept ops, the recorded deadline re-armed, and the
// entry list rebuilt into a verbatim replay log. The kept ops must match a
// subsequence of the materialized plan — a mismatch means the registered
// scenario drifted since the artifact was written, and re-running it would
// silently reproduce something else.
func (s *ShrinkLog) Rebuild() (scenario.Scenario, *schedule.Replay, error) {
	sc, ok := scenario.Get(s.Scenario)
	if !ok {
		return scenario.Scenario{}, nil, fmt.Errorf("shrink: scenario %q not registered", s.Scenario)
	}
	sc = sc.Materialize(s.Seed)
	ops := sc.Plan.Ops()
	drop := make(map[int]bool)
	j := 0
	for i, op := range ops {
		if j < len(s.Ops) && int64(op.At) == s.Ops[j].AtNS && op.Name == s.Ops[j].Name {
			j++
			continue
		}
		drop[i] = true
	}
	if j != len(s.Ops) {
		return scenario.Scenario{}, nil, fmt.Errorf(
			"shrink: artifact keeps %d ops but only %d match the registered plan (scenario drifted?)",
			len(s.Ops), j)
	}
	sc.Plan = sc.Plan.Without(drop)
	if s.DeadlineNS > 0 {
		sc.Deadline = time.Duration(s.DeadlineNS)
	}
	log := schedule.NewLog()
	for _, e := range s.Entries {
		log.Append(schedule.Entry{
			From: e.From, To: e.To, Type: e.Type,
			SendAt:   time.Duration(e.SendAtNS),
			Deadline: time.Duration(e.DeadlineNS),
			Verdict:  schedule.Verdict(e.Verdict),
		})
	}
	return sc, &schedule.Replay{Log: log}, nil
}

// Run rebuilds the artifact and executes it once, returning the replayed
// outcome — the cross-process "does it still fail" check in one call.
func (s *ShrinkLog) Run() (scenario.Outcome, error) {
	sc, replay, err := s.Rebuild()
	if err != nil {
		return scenario.Outcome{}, err
	}
	return scenario.Run(sc, s.Seed, scenario.RunOptions{Replay: replay}), nil
}
