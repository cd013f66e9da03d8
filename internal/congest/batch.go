package congest

import (
	"fmt"
	"iter"
	"sync/atomic"

	"powergraph/internal/obs"
)

// adapterRuns counts calls of Run, which adapts a blocking handler through
// coroutines, as opposed to RunProgram, which steps a native StepProgram.
var adapterRuns atomic.Int64

// AdapterRuns reports how many runs in this process adapted a blocking
// handler via coroutines instead of stepping native StepPrograms.
// Every registry algorithm is a native step program, so sweeps keep this
// counter flat; it exists so tests can prove a hot path carries no coroutine
// adaptation (the adapter remains for the blocking reference programs and
// user-supplied handlers).
func AdapterRuns() int64 { return adapterRuns.Load() }

// The round loop: a single scheduler goroutine advances every node once per
// round (in id order) and then moves all queued messages from the flat
// per-node outbox slices into the inbox slices, reusing the buffers across
// rounds. There is no per-round map allocation and — for step programs — no
// goroutine per node at all; blocking handlers are adapted by running each
// one inside an iter.Pull coroutine whose yield points are its NextRound
// calls, so resuming a node for one round is a direct coroutine switch
// (~100ns) rather than a trip through the runtime scheduler.
//
// Determinism at any shard count follows from three invariants shared by
// the sequential and sharded drivers: nodes only interact at round
// boundaries, senders are processed in id order (so inboxes are sorted by
// sender), and a round is counted (and its messages delivered) exactly when
// at least one node is still running after the sweep.

// stepResult is the outcome of advancing one node by one round.
type stepResult uint8

const (
	stepYielded stepResult = iota
	stepDone
)

// stepper advances one node by one round. Implementations record outputs
// and errors themselves; the scheduler only tracks liveness.
type stepper interface {
	step() stepResult
	// unwind releases any resource still held after an aborted run (the
	// parked coroutine of a blocking handler); called once, after the
	// round loop returns.
	unwind()
}

// runBatchToCompletion drives the steppers until quiescence, error, or the
// round limit, then unwinds whatever is still parked so no goroutine
// outlives the run.
func (e *engine) runBatchToCompletion(steppers []stepper) error {
	e.traceRunStart()
	runErr := e.runBatch(steppers)
	for _, s := range steppers {
		s.unwind()
	}
	if runErr == nil {
		runErr = e.firstErr
	}
	e.traceRunEnd(runErr)
	return runErr
}

// errMaxRounds builds the round-limit abort error; the sequential and
// sharded drivers report it identically.
func errMaxRounds(limit int) error {
	return fmt.Errorf("%w (%d)", ErrMaxRounds, limit)
}

// runBatch is the engine's round loop: check MaxRounds and cancellation,
// step every live node, then deliver only if someone is still running.
// With Config.Shards > 1 the sweep is delegated to the sharded driver
// (shard.go), which stages per-shard side effects and merges them at the
// barrier so its output is byte-identical to this sequential loop.
func (e *engine) runBatch(steppers []stepper) error {
	if e.shards > 1 {
		return e.runBatchSharded(steppers)
	}
	alive := make([]bool, len(steppers))
	for i := range alive {
		alive[i] = true
	}
	live := len(steppers)
	for round := 0; ; round++ {
		if round > e.maxRounds {
			return errMaxRounds(e.maxRounds)
		}
		if err := e.ctxErr(); err != nil {
			return err
		}
		// stamp doubles as the duplicate-send guard for this round; it is
		// round+1 so the zero value of a node's sentRound map never matches.
		e.stamp = round + 1
		for i, s := range steppers {
			if !alive[i] {
				continue
			}
			if s.step() == stepDone {
				alive[i] = false
				live--
			}
		}
		if e.firstErr != nil {
			return e.firstErr
		}
		if live == 0 {
			return nil
		}
		e.stats.Rounds++
		e.deliverBatch()
		e.traceRound(round, live)
	}
}

// deliverBatch moves every sending node's flat outbox into the destination
// inboxes, accounting bits. Senders were registered in id order, so every
// inbox stays sorted by sender; within one sender the queue order is
// irrelevant because a sender queues at most one message per destination
// per round. Only last round's receivers need their inboxes cleared, so a
// quiet round costs nothing per idle node.
func (e *engine) deliverBatch() {
	for _, id := range e.receivers {
		e.nodes[id].inbox = e.nodes[id].inbox[:0]
	}
	e.receivers = e.receivers[:0]
	var roundBits, roundMsgs, maxLink int64
	for _, sid := range e.senders {
		nd := e.nodes[sid]
		for k, to := range nd.outDst {
			m := nd.outMsgs[k]
			b := int64(m.Bits())
			e.stats.TotalBits += b
			roundBits += b
			roundMsgs++
			// One message per directed link per round, so the largest
			// message is the max single-link bit volume this round.
			if e.wantRounds && b > maxLink {
				maxLink = b
			}
			if e.cutA != nil && e.cutA.Contains(nd.id) != e.cutA.Contains(to) {
				e.stats.CutBits += b
				e.stats.CutMessages++
			}
			dst := e.nodes[to]
			if len(dst.inbox) == 0 {
				e.receivers = append(e.receivers, to)
			}
			dst.inbox = append(dst.inbox, Incoming{From: nd.id, Msg: m})
		}
		nd.outDst = nd.outDst[:0]
		nd.outMsgs = nd.outMsgs[:0]
	}
	e.senders = e.senders[:0]
	e.lastBits, e.lastMsgs, e.lastMaxLink = roundBits, roundMsgs, maxLink
	e.stats.Messages += roundMsgs
	if roundBits > e.stats.MaxRoundBits {
		e.stats.MaxRoundBits = roundBits
	}
	if roundMsgs > e.stats.MaxRoundMessages {
		e.stats.MaxRoundMessages = roundMsgs
	}
}

// coroStepper adapts a blocking Handler to the round loop: the handler
// runs inside an iter.Pull coroutine, with NextRound implemented as the
// coroutine's yield. Exactly one of (scheduler, node) is runnable at any
// moment, so rounds stay strictly sequential in node-id order, and the
// resume/yield pair is a direct coroutine switch with no channels involved.
type coroStepper[T any] struct {
	eng     *engine
	nd      *Node
	handler Handler[T]
	outputs []T
	// next resumes the coroutine until its next NextRound (or return);
	// stop tears it down, making the pending yield return false.
	next func() (struct{}, bool)
	stop func()
}

func (s *coroStepper[T]) step() stepResult {
	if s.next == nil {
		s.next, s.stop = iter.Pull(s.body())
	}
	if _, alive := s.next(); !alive {
		return stepDone
	}
	return stepYielded
}

// body builds the coroutine: the handler runs with nd.yield wired to the
// iterator's yield function, and every panic or error is recorded before
// the sequence returns (so the scheduler's next() never panics).
func (s *coroStepper[T]) body() iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		s.nd.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if np, ok := r.(nodePanic); ok {
					if np.err != errAborted {
						s.eng.nodeErr(s.nd, np.err)
					}
				} else {
					s.eng.nodeErr(s.nd, fmt.Errorf("congest: node %d panicked: %v [%s]", s.nd.id, r, obs.StackSummary(2, 6)))
				}
			}
		}()
		out, err := s.handler(s.nd)
		if err != nil {
			s.eng.nodeErr(s.nd, fmt.Errorf("congest: node %d: %w", s.nd.id, err))
			return
		}
		s.outputs[s.nd.id] = out
	}
}

// unwind tears down a coroutine that is still parked in NextRound after an
// aborted run: stop makes the pending yield return false, which NextRound
// converts into the errAborted panic, unwinding the handler's stack.
func (s *coroStepper[T]) unwind() {
	if s.stop != nil {
		s.stop()
	}
}

// progStepper drives a native StepProgram: one plain method call per round.
type progStepper[T any] struct {
	eng     *engine
	nd      *Node
	prog    StepProgram[T]
	outputs []T
}

func (s *progStepper[T]) step() (res stepResult) {
	s.nd.round = s.eng.stamp - 1
	defer func() {
		if r := recover(); r != nil {
			if np, ok := r.(nodePanic); ok {
				s.eng.nodeErr(s.nd, np.err)
			} else {
				s.eng.nodeErr(s.nd, fmt.Errorf("congest: node %d panicked: %v [%s]", s.nd.id, r, obs.StackSummary(2, 6)))
			}
			res = stepDone
		}
	}()
	done, err := s.prog.Step(s.nd)
	if err != nil {
		s.eng.nodeErr(s.nd, fmt.Errorf("congest: node %d: %w", s.nd.id, err))
		return stepDone
	}
	if done {
		s.outputs[s.nd.id] = s.prog.Output()
		return stepDone
	}
	return stepYielded
}

func (s *progStepper[T]) unwind() {}
