package obs

// Enabled reports whether tracing is on (the receiver is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emitted returns the total number of records emitted, including those
// already overwritten in the ring.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}
