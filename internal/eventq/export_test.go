package eventq

// Accessors only the tests read: the differential, fuzz and snapshot tests
// compare them against the reference heap and across restores.

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// Len returns the number of entries resident in the schedule. This includes
// lazily-deleted work — cancelled events not yet reaped and superseded
// entries left behind by Reset — so it measures memory pressure, not work
// remaining. Use Pending for the number of events that will still fire.
func (q *Queue) Len() int { return q.calQ + len(q.ov) }

// Pending returns the number of live scheduled events: those that will fire
// unless cancelled or rescheduled. Cancelled-but-unreaped events are
// excluded.
func (q *Queue) Pending() int { return q.live }

// Run executes events until none remain.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// Seq returns the sequence number of a handle event.
func (e *Event) Seq() uint64 { return e.seq }
