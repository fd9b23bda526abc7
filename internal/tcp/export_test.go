package tcp

import "github.com/accnet/acc/internal/simtime"

// Accessors only the tests read.

// Done reports whether the transfer completed (receiver view; see Received
// for the split-mode caveat).
func (f *Flow) Done() bool { return f.rx != nil && f.rx.done }

// FCT returns the completion time, valid once Done.
func (f *Flow) FCT() simtime.Duration { return f.End.Sub(f.Start) }

// Cwnd returns the congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// Alpha returns the DCTCP congestion estimate.
func (f *Flow) Alpha() float64 { return f.alpha }

// Received returns contiguous bytes delivered to the receiver; valid when
// the flow was started with Start (both halves on one Network). Split
// sharded senders report 0 — delivery progress belongs to the Receiver in
// the destination shard.
func (f *Flow) Received() int64 {
	if f.rx == nil {
		return 0
	}
	return f.rx.rcvNext
}

// Received returns contiguous bytes delivered.
func (r *Receiver) Received() int64 { return r.rcvNext }

// FCT returns the completion time, valid once Done.
func (r *Receiver) FCT() simtime.Duration { return r.End.Sub(r.Start) }

// SRTT returns the smoothed RTT estimate.
func (f *Flow) SRTT() simtime.Duration { return f.srtt }
