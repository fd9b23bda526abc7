package psim

// Barrier-window synchronization. This file is the only concurrent code in
// the package — and, by design, the only place where goroutines touch
// simulation state. The protocol is a strict alternation:
//
//	phase A (parallel):  every shard worker runs its queue exclusively of
//	                     the barrier (RunBefore), buffering cross-shard
//	                     packets in its own outbox rows;
//	barrier:             workers report done (channel receive);
//	phase B (coordinator): the coordinator alone injects buffered packets
//	                     into receiving shards, then runs barrier hooks.
//
// Every shard-state access is therefore totally ordered by channel
// operations: a worker's window happens-before the coordinator's exchange,
// which happens-before the next window. Determinism does not depend on
// goroutine scheduling at all — the merge position of an injected arrival is
// fixed by its (time, key), not by injection order — so the loop produces
// bit-identical results at any GOMAXPROCS, including 1.
// internal/lint/config.go carries the audited allowlist entry for this
// file's goroutines and channels.

import (
	"fmt"

	"github.com/accnet/acc/internal/simtime"
)

// Run advances all shards to exactly the horizon, exchanging cross-shard
// packets at every barrier. Barriers fall at multiples of the window with a
// final (shorter, still conservative) window ending at the horizon. It may
// be called repeatedly to extend a run.
func (e *Engine) Run(horizon simtime.Time) {
	if horizon <= e.now {
		return
	}
	starts := make([]chan simtime.Time, len(e.Shards))
	done := make(chan int, len(e.Shards))
	for i := range e.Shards {
		starts[i] = make(chan simtime.Time, 1)
		go func(i int) {
			for b := range starts[i] {
				e.Shards[i].Net.Q.RunBefore(b)
				done <- i
			}
		}(i)
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
	}()

	for e.now < horizon {
		b := e.now.Add(e.Window)
		if b > horizon {
			b = horizon
		}
		for i := range starts {
			starts[i] <- b
		}
		for range starts {
			<-done
		}
		e.now = b
		e.exchange()
		for _, h := range e.hooks {
			h(b)
		}
	}
}

// exchange drains every outbox into the receiving shards. All workers are
// quiescent at the barrier, so the coordinator owns all shard state here.
// Drain order is fixed (dst-major, then src) but irrelevant to the result:
// each injected arrival lands at its keyed schedule position regardless of
// injection order.
func (e *Engine) exchange() {
	for dst := range e.Shards {
		for src := range e.Shards {
			box := e.outbox[src][dst]
			for i := range box {
				cp := &box[i]
				if cp.at < e.now {
					// A packet older than the barrier would be an event in
					// the receiving shard's past: the lookahead invariant
					// (window ≤ min cross-shard delay) is broken.
					panic(fmt.Sprintf("psim: conservative lookahead violated: arrival at %v behind barrier %v", cp.at, e.now))
				}
				cp.port.ScheduleRemoteArrival(cp.pkt, cp.at, cp.key)
			}
			e.outbox[src][dst] = box[:0]
		}
	}
}
