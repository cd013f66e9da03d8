package congest

import "sync"

// The sharded sweep: Config.Shards > 1 splits the engine's per-round node
// sweep into contiguous node-id ranges advanced by a
// persistent worker pool, while everything with cross-node visibility —
// message delivery, statistics, span reference counting, tracer events,
// error selection — stays on the coordinator goroutine at the round
// barrier.
//
// Determinism is the whole design: the sequential sweep steps nodes in
// ascending id order and its observable side effects (sender registration
// order, span mark order, "first error wins") all inherit that order.
// Workers therefore never touch shared engine state; each side effect is
// staged in the worker's shardState, and the barrier merges the shards in
// ascending shard order — which, because shards are contiguous ascending id
// ranges swept in ascending id order, replays exactly the sequential
// sweep's global order. The merged state then drives the unchanged
// deliverBatch/traceRound path, so results, Stats, spans, and trace streams
// are byte-identical to Shards ≤ 1 at any shard count.
//
// Memory stays flat per round: the staging slices are truncated and reused
// across rounds, the worker pool is created once per run, and no goroutine
// is ever spawned per node or per round.

// spanMark is one staged SpanBegin/SpanEnd call recorded during a sharded
// sweep, replayed against the engine's span reference counts at the
// barrier.
type spanMark struct {
	name  string
	index int
	round int
	end   bool
}

// shardState is one worker's staging area. Only its owning worker touches
// it during a sweep; only the coordinator touches it between sweeps. The
// trailing pad keeps adjacent shardStates out of each other's cache lines.
type shardState struct {
	lo, hi int // node-id range [lo, hi)
	live   int // nodes of this shard still running

	// senders lists the shard's nodes that queued messages this round, in
	// ascending id order (the in-shard sweep order).
	senders []int
	// marks stages SpanBegin/SpanEnd calls in call order.
	marks []spanMark
	// err is the shard's first node error this round (= lowest failing id,
	// because the in-shard sweep is sequential in id order).
	err error

	_ [64]byte // false-sharing pad
}

// runBatchSharded is runBatch's control flow with the node sweep fanned out
// across a persistent worker pool. Round counting, the MaxRounds check, the
// "deliver only if someone is still running" rule, and the order of error
// checks are identical to the sequential driver.
func (e *engine) runBatchSharded(steppers []stepper) error {
	n := len(steppers)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	e.shardStates = make([]shardState, e.shards)
	starts := make([]chan struct{}, e.shards)
	var wg sync.WaitGroup
	for k := 0; k < e.shards; k++ {
		sh := &e.shardStates[k]
		sh.lo, sh.hi = k*n/e.shards, (k+1)*n/e.shards
		sh.live = sh.hi - sh.lo
		for i := sh.lo; i < sh.hi; i++ {
			e.nodes[i].sh = sh
		}
		starts[k] = make(chan struct{}, 1)
		go func(start <-chan struct{}, sh *shardState) {
			// One worker per shard for the whole run, so every node is
			// always stepped by the same goroutine (coroutine-adapted
			// handlers rely on their resumes being serialized).
			for range start {
				for i := sh.lo; i < sh.hi; i++ {
					if !alive[i] {
						continue
					}
					if steppers[i].step() == stepDone {
						alive[i] = false
						sh.live--
					}
				}
				wg.Done()
			}
		}(starts[k], sh)
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
	}()
	for round := 0; ; round++ {
		if round > e.maxRounds {
			return errMaxRounds(e.maxRounds)
		}
		if err := e.ctxErr(); err != nil {
			return err
		}
		e.stamp = round + 1
		wg.Add(e.shards)
		for _, c := range starts {
			c <- struct{}{}
		}
		wg.Wait()
		// Barrier merge, in shard order = ascending node-id order. Span
		// marks replay before the error check so an aborting run has
		// emitted exactly the span events the sequential sweep had at its
		// abort point.
		live := 0
		var shardErr error
		for k := range e.shardStates {
			sh := &e.shardStates[k]
			live += sh.live
			e.senders = append(e.senders, sh.senders...)
			sh.senders = sh.senders[:0]
			for _, mk := range sh.marks {
				if mk.end {
					e.spanEnd(mk.name, mk.index, mk.round)
				} else {
					e.spanBegin(mk.name, mk.index, mk.round)
				}
			}
			sh.marks = sh.marks[:0]
			if sh.err != nil && shardErr == nil {
				shardErr = sh.err
			}
			sh.err = nil
		}
		if shardErr != nil {
			e.setErr(shardErr)
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
