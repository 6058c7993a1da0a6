// Package baseline implements the two classical replication schemes the
// paper positions x-ability against (§1, §6): primary-backup [BMST93] and
// active replication [Sch93], both *without* x-ability's side-effect
// coordination.
//
// Both run on the same substrates as the x-ability protocol (simnet
// network, trace observer, env environment) but apply side effects through
// env.ExecRaw — the uncoordinated path — because neither scheme has the
// retry/cancel/agreement machinery to exploit idempotence or undoability.
// Experiment E7 submits the same workloads to these baselines and to
// internal/core and lets the x-ability checker and the environment's
// exactly-once audit expose the difference:
//
//   - Primary-backup duplicates a side effect when the primary crashes
//     after executing but before its processed-notice reaches the backups:
//     the client's retry makes the new primary execute again.
//   - Active replication duplicates every side effect n times by
//     construction: every replica executes every request.
package baseline

import (
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/env"
	"xability/internal/event"
	"xability/internal/fd"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Handler executes a request's business logic and returns the output
// value. It runs under the environment lock (via env.ExecRaw).
type Handler func(req action.Request) action.Value

// Replica-to-replica message types. Clients reach a baseline through
// Figure 5's stub like any other service (core.Client), so submits and
// results travel as core.MsgSubmit/SubmitPayload and
// core.MsgResult/ResultPayload.
const (
	msgProcessed = "pb-processed" // primary → backups: request done
	msgSequenced = "ab-sequenced" // sequencer → replicas: ordered request
)

type processedPayload struct {
	ReqID string
	Value action.Value
}

type sequencedPayload struct {
	Seq    int
	Req    action.Request
	Client simnet.ProcessID
}

// PBServer is one primary-backup replica. The primary is the first live
// replica in the configured order; every replica answers submit messages
// (the client fails over by retrying the next replica), executing only if
// it believes itself primary.
type PBServer struct {
	id       simnet.ProcessID
	ep       *simnet.Endpoint
	order    []simnet.ProcessID
	det      fd.Detector
	world    *env.Env
	handler  Handler
	net      *simnet.Network
	clk      *vclock.Virtual
	crashGap time.Duration // test hook: delay between execute and processed-notice

	mu        sync.Mutex
	stopped   bool
	processed map[string]action.Value
}

// PBConfig assembles a primary-backup replica.
type PBConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Order    []simnet.ProcessID
	Detector fd.Detector
	Env      *env.Env
	Handler  Handler
	Network  *simnet.Network
	// SyncDelay widens the window between executing a request and
	// propagating the processed-notice to backups — the window in which a
	// primary crash causes duplication. Zero keeps the window minimal (it
	// still exists).
	SyncDelay time.Duration
}

// NewPBServer builds a replica.
func NewPBServer(cfg PBConfig) *PBServer {
	return &PBServer{
		id:        cfg.ID,
		ep:        cfg.Endpoint,
		order:     append([]simnet.ProcessID(nil), cfg.Order...),
		det:       cfg.Detector,
		world:     cfg.Env,
		handler:   cfg.Handler,
		net:       cfg.Network,
		clk:       cfg.Network.Clock(),
		crashGap:  cfg.SyncDelay,
		processed: make(map[string]action.Value),
	}
}

// Start launches the receive loop on the network clock.
func (s *PBServer) Start() { s.clk.Go(s.loop) }

// Stop halts the server.
func (s *PBServer) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Crash crashes the replica.
func (s *PBServer) Crash() {
	s.Stop()
	s.net.Crash(s.id)
}

// primary reports whether this replica currently believes itself primary:
// the first replica in the order it does not suspect.
func (s *PBServer) primary() bool {
	for _, id := range s.order {
		if id == s.id {
			return true
		}
		if !s.det.Suspect(id) {
			return false
		}
	}
	return false
}

func (s *PBServer) loop() {
	for {
		msg, ok := s.ep.Recv()
		if !ok {
			return
		}
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return
		}
		switch msg.Type {
		case core.MsgSubmit:
			p, ok := msg.Payload.(core.SubmitPayload)
			if !ok {
				continue
			}
			s.handleSubmit(p)
		case msgProcessed:
			if p, ok := msg.Payload.(processedPayload); ok {
				s.mu.Lock()
				s.processed[p.ReqID] = p.Value
				s.mu.Unlock()
			}
		}
	}
}

func (s *PBServer) handleSubmit(p core.SubmitPayload) {
	s.mu.Lock()
	v, done := s.processed[p.Req.ID]
	s.mu.Unlock()
	if done {
		s.ep.Send(p.Client, core.MsgResult, core.ResultPayload{ReqID: p.Req.ID, Value: v})
		return
	}
	if !s.primary() {
		return // a backup stays silent; the client will fail over
	}
	// Execute the action — uncoordinated: the raw effect applies on every
	// execution, and there is no cancel/commit protocol.
	obs := s.world.Observer()
	tagged := p.Req // keep the ID tag so the checker can attribute events
	obs.Observe(event.S(tagged.Action, tagged.EffectiveInput()).WithAnnotation(string(s.id)))
	res, err := s.world.ExecRaw(tagged.Action, tagged.EffectiveInput(), func() action.Value {
		return s.handler(p.Req)
	})
	if err != nil {
		return // action failed; the client will retry
	}
	if s.crashGap > 0 {
		s.clk.Sleep(s.crashGap) // the duplication window, widened for tests
	}
	s.mu.Lock()
	stopped := s.stopped
	if !stopped {
		s.processed[p.Req.ID] = res
	}
	s.mu.Unlock()
	if stopped {
		return // crashed before syncing or replying
	}
	for _, id := range s.order {
		if id != s.id {
			s.ep.Send(id, msgProcessed, processedPayload{ReqID: p.Req.ID, Value: res})
		}
	}
	s.ep.Send(p.Client, core.MsgResult, core.ResultPayload{ReqID: p.Req.ID, Value: res})
}

// ActiveServer is one active-replication replica: a sequencer (the first
// replica) assigns a total order and every replica executes every request
// in that order [Sch93]. Correctness of active replication requires
// deterministic actions; side effects on third parties are executed by
// every replica — the duplication x-ability exists to rule out.
type ActiveServer struct {
	id        simnet.ProcessID
	ep        *simnet.Endpoint
	order     []simnet.ProcessID
	world     *env.Env
	handler   Handler
	net       *simnet.Network
	clk       *vclock.Virtual
	isSeq     bool
	replyOnly simnet.ProcessID // only the sequencer replies (clients dedup anyway)

	mu      sync.Mutex
	stopped bool
	nextSeq int
	buffer  map[int]sequencedPayload
	applied int
}

// ActiveConfig assembles an active-replication replica.
type ActiveConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Order    []simnet.ProcessID
	Env      *env.Env
	Handler  Handler
	Network  *simnet.Network
}

// NewActiveServer builds a replica; the first replica in Order is the
// sequencer.
func NewActiveServer(cfg ActiveConfig) *ActiveServer {
	return &ActiveServer{
		id:      cfg.ID,
		ep:      cfg.Endpoint,
		order:   append([]simnet.ProcessID(nil), cfg.Order...),
		world:   cfg.Env,
		handler: cfg.Handler,
		net:     cfg.Network,
		clk:     cfg.Network.Clock(),
		isSeq:   cfg.ID == cfg.Order[0],
		buffer:  make(map[int]sequencedPayload),
	}
}

// Start launches the receive loop on the network clock.
func (s *ActiveServer) Start() { s.clk.Go(s.loop) }

// Stop halts the server.
func (s *ActiveServer) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Crash crashes the replica.
func (s *ActiveServer) Crash() {
	s.Stop()
	s.net.Crash(s.id)
}

func (s *ActiveServer) loop() {
	for {
		msg, ok := s.ep.Recv()
		if !ok {
			return
		}
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return
		}
		switch msg.Type {
		case core.MsgSubmit:
			p, ok := msg.Payload.(core.SubmitPayload)
			if !ok || !s.isSeq {
				continue // only the sequencer orders requests
			}
			s.mu.Lock()
			s.nextSeq++
			sp := sequencedPayload{Seq: s.nextSeq, Req: p.Req, Client: p.Client}
			s.mu.Unlock()
			for _, id := range s.order {
				if id == s.id {
					s.deliver(sp)
				} else {
					s.ep.Send(id, msgSequenced, sp)
				}
			}
		case msgSequenced:
			if sp, ok := msg.Payload.(sequencedPayload); ok {
				s.deliver(sp)
			}
		}
	}
}

// deliver executes sequenced requests in order, buffering gaps.
func (s *ActiveServer) deliver(sp sequencedPayload) {
	s.mu.Lock()
	s.buffer[sp.Seq] = sp
	var ready []sequencedPayload
	for {
		next, ok := s.buffer[s.applied+1]
		if !ok {
			break
		}
		delete(s.buffer, s.applied+1)
		s.applied++
		ready = append(ready, next)
	}
	s.mu.Unlock()
	for _, r := range ready {
		s.execute(r)
	}
}

func (s *ActiveServer) execute(sp sequencedPayload) {
	obs := s.world.Observer()
	obs.Observe(event.S(sp.Req.Action, sp.Req.EffectiveInput()).WithAnnotation(string(s.id)))
	res, err := s.world.ExecRaw(sp.Req.Action, sp.Req.EffectiveInput(), func() action.Value {
		return s.handler(sp.Req)
	})
	if err != nil {
		return
	}
	// Every replica replies; the client takes the first answer.
	s.ep.Send(sp.Client, core.MsgResult, core.ResultPayload{ReqID: sp.Req.ID, Value: res})
}
