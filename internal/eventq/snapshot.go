package eventq

import (
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support.
//
// The queue itself serializes only its counters (clock, sequence counter,
// processed count) plus a pool-prewarm hint: event *contents* are closures
// and pre-bound method values, which cannot be written to bytes. Restoring
// a snapshot therefore rebuilds the world deterministically (construction
// assigns every plan event the same (at, seq) it had originally, because
// the sequence counter starts from the same zero), clears the rebuilt
// queue, restores the counters, and re-inserts pending work through three
// typed paths:
//
//   - RestoreEvent re-inserts a construction-time handle (the closure is
//     already bound to the rebuilt world) at the (at, seq) it carries.
//   - SyncTimer / RestoreCall materialize a component timer or in-flight
//     packet event at an explicitly recorded (at, seq) without consuming
//     the sequence counter, so the restored schedule is bit-identical to
//     the original.
//
// See DESIGN.md "Snapshot & fork" for the full restore protocol.

// Sync saves or restores the queue's counters and a free-pool prewarm
// hint. The schedule contents are saved by their owners (see package
// comment). On restore the queue is cleared first and the free list
// prewarmed, so post-restore scheduling is allocation-free; owners then
// re-insert still-pending work via RestoreEvent / SyncTimer /
// RestoreCall.
func (q *Queue) Sync(s *codec.Stream) {
	s.Tag("eventq")
	if s.Loading() {
		q.Clear()
	}
	codec.Int(s, &q.now)
	codec.Uint(s, &q.seq)
	codec.Uint(s, &q.processed)
	warm := len(q.free) + q.pooledLive()
	codec.Int(s, &warm)
	if !s.Loading() || s.Err() != nil {
		return
	}
	if q.buckets != nil {
		q.baseDay = dayOf(q.now)
		q.curDay = q.baseDay
	}
	q.prewarm(min(warm, maxPrewarm))
}

// maxPrewarm caps the restored free-list hint: it sizes an allocation, so
// a corrupt stream must not be able to demand an unbounded one. A world
// that needs more pooled events allocates the rest on demand.
const maxPrewarm = 1 << 18

// pooledLive counts resident pooled (CallAt-path) events, live or
// cancelled. Restore re-materializes that many from the free list, so the
// prewarm target is free + pooledLive.
func (q *Queue) pooledLive() int {
	n := 0
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, ent := range b.ents[b.head:] {
			if !ent.stale() && ent.ev.pooled {
				n++
			}
		}
	}
	for _, ent := range q.ov {
		if !ent.stale() && ent.ev.pooled {
			n++
		}
	}
	return n
}

// Clear removes every entry from the schedule. Pooled events are recycled
// into the free list; handle events are detached (no longer pending) but
// keep their (at, seq) and callback, so a subsequent RestoreEvent can
// re-insert them unchanged. The clock and counters are left untouched.
func (q *Queue) Clear() {
	for i := range q.buckets {
		b := &q.buckets[i]
		for j := b.head; j < len(b.ents); j++ {
			q.clearEntry(b.ents[j])
			b.ents[j] = entry{}
		}
		b.head = len(b.ents)
		if len(b.ents) > 0 {
			q.clearBucket(b)
		}
	}
	for i, ent := range q.ov {
		q.clearEntry(ent)
		q.ov[i] = entry{}
	}
	q.ov = q.ov[:0]
	q.ovStale = 0
	q.calQ = 0
	q.live = 0
}

// clearEntry detaches one resident entry's event. Stale entries (superseded
// by a Reset) are artifacts: their event's live entry is elsewhere.
func (q *Queue) clearEntry(ent entry) {
	if ent.stale() {
		return
	}
	ev := ent.ev
	ev.pending = false
	ev.loc = locNone
	if ev.pooled {
		ev.cancelled = false
		q.recycle(ev)
	}
}

// RestoreEvent re-inserts a detached handle event at the (at, seq) it
// already carries. The event must come from the deterministic rebuild of
// the same world (its callback is bound to live objects) and must not be
// pending or cancelled.
func (q *Queue) RestoreEvent(ev *Event) {
	if ev == nil || ev.pooled {
		panic("eventq: RestoreEvent needs a handle event")
	}
	if ev.pending {
		panic("eventq: RestoreEvent on a pending event")
	}
	if ev.at < q.now {
		panic("eventq: RestoreEvent in the past")
	}
	ev.cancelled = false
	q.schedule(ev)
}

// restoreAt schedules fn at an explicitly recorded (at, seq) and returns
// the handle, without consuming the monotonic sequence counter: the
// restore-side counterpart of At/Reset for component timers.
func (q *Queue) restoreAt(t simtime.Time, seq uint64, fn func()) *Event {
	e := &Event{at: t, seq: seq, fn: fn, q: q}
	q.schedule(e)
	return e
}

// RestoreCall, on a reading stream, schedules fn(arg) on a recycled event
// at a recorded (at, seq) slot without consuming the sequence counter —
// the restore-side counterpart of CallAt/CallAfter/CallAtSeq. It does
// nothing on a writing stream or after a decode error.
func (q *Queue) RestoreCall(s *codec.Stream, t simtime.Time, seq uint64, fn func(any), arg any) {
	if !s.Loading() || !q.restorable(s, t) {
		return
	}
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{q: q}
	}
	e.at = t
	e.seq = seq
	e.afn = fn
	e.arg = arg
	e.pooled = true
	e.cancelled = false
	q.schedule(e)
}

// restorable reports whether a decoded slot at t may be scheduled: the
// stream decoded cleanly and t is not before the restored clock. A slot in
// the past fails the stream instead of panicking in the scheduler.
func (q *Queue) restorable(s *codec.Stream, t simtime.Time) bool {
	if s.Err() != nil {
		return false
	}
	if t < q.now {
		s.Fail("event slot at %v is before the restored clock %v", t, q.now)
		return false
	}
	return true
}

// prewarm grows the event free list to at least n events so subsequent
// CallAt-path scheduling allocates nothing.
func (q *Queue) prewarm(n int) {
	for len(q.free) < n {
		q.free = append(q.free, &Event{q: q})
	}
}

// SyncTimer saves or restores one handle timer's scheduling slot: a
// pending flag and, when pending, its (at, seq). On restore *ev becomes
// the re-armed handle calling fn, or nil when the timer was not pending.
func (q *Queue) SyncTimer(s *codec.Stream, ev **Event, fn func()) {
	pending := (*ev).Pending()
	s.Bool(&pending)
	if !pending {
		if s.Loading() {
			*ev = nil
		}
		return
	}
	var at simtime.Time
	var seq uint64
	if !s.Loading() {
		at, seq = (*ev).at, (*ev).seq
	}
	codec.Int(s, &at)
	codec.Uint(s, &seq)
	if s.Loading() && q.restorable(s, at) {
		*ev = q.restoreAt(at, seq, fn)
	}
}

// Seq returns the next monotonic sequence number the queue will assign.
// Snapshot differential tests use it to assert rebuild equivalence.
func (q *Queue) Seq() uint64 { return q.seq }

// Pending reports whether the event is scheduled and will fire.
func (e *Event) Pending() bool { return e != nil && e.pending }

// Owner returns the queue the event was created on. Restore code uses it
// to re-insert a detached handle into the correct shard's queue.
func (e *Event) Owner() *Queue { return e.q }
