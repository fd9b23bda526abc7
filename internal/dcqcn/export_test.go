package dcqcn

import "github.com/accnet/acc/internal/simtime"

// Accessors only the tests read.

// Rate returns the sender's current injection rate.
func (f *Flow) Rate() simtime.Rate { return f.rc }

// Alpha returns the sender's congestion estimate.
func (f *Flow) Alpha() float64 { return f.alpha }

// Sent returns bytes handed to the NIC so far.
func (f *Flow) Sent() int64 { return f.sent }

// Received returns bytes delivered so far; valid when the flow was started
// with Start (both halves on one Network). Split sharded senders report 0 —
// delivery progress belongs to the Receiver in the destination shard.
func (f *Flow) Received() int64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.rcvd
}

// Done reports whether all bytes were delivered (see Received for the
// split-mode caveat).
func (f *Flow) Done() bool { return f.rx != nil && f.rx.done }

// MarkedSeen returns the receiver's count of CE-marked data packets (see
// Received for the split-mode caveat).
func (f *Flow) MarkedSeen() uint64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.MarkedSeen
}

// FCT returns the flow completion time; valid once Done.
func (f *Flow) FCT() simtime.Duration { return f.End.Sub(f.Start) }

// Received returns bytes delivered so far.
func (r *Receiver) Received() int64 { return r.rcvd }

// FCT returns the flow completion time; valid once Done.
func (r *Receiver) FCT() simtime.Duration { return r.End.Sub(r.Start) }
