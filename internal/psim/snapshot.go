package psim

import (
	"slices"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/hybrid"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
	"github.com/accnet/acc/internal/tcp"
)

// Engine snapshots are taken at barriers only: every shard is quiescent at
// exactly the barrier time, all outboxes have been exchanged (an in-flight
// cross-shard packet lives as an arrival event in the receiving shard's
// queue, captured by its port's flight ring), and barrier hooks see the
// same state in every shard layout. Engine.Sync inside an OnBarrier hook
// is therefore a complete, layout-portable capture of the fabric.

// Sync saves or restores the engine's barrier clock and every shard's
// network state. Save only from a barrier hook (or with the engine
// quiescent after Run returned); restore into a freshly built engine with
// the same Config. Plan events and transports are restored separately
// (see Applied.RestorePending and Applied.Sync).
func (e *Engine) Sync(s *codec.Stream) {
	s.Tag("psim")
	codec.Int(s, &e.now)
	n := len(e.Shards)
	codec.Int(s, &n)
	if s.Err() == nil && n != len(e.Shards) {
		s.Fail("psim: snapshot has %d shards, engine has %d (layout mismatch — snapshots are layout-specific)", n, len(e.Shards))
	}
	for _, sh := range e.Shards {
		if s.Err() != nil {
			return
		}
		sh.Net.Sync(s)
	}
}

// Sync saves or restores the live transport population of one plan
// instantiation on e: per flow, the sender and receiver halves that are
// still registered (completed halves tore themselves down and are rebuilt
// as completed by the End table), plus the completion table. A restore
// discards the construction-time transports, rebuilds the live ones —
// re-registering endpoints and re-arming timers — and re-parks NIC
// waiters. Restore after Engine.Sync and Applied.RestorePending.
func (a *Applied) Sync(s *codec.Stream, e *Engine) {
	s.Tag("applied")
	n := len(a.Plan.Flows)
	codec.Int(s, &n)
	if s.Err() == nil && n != len(a.Plan.Flows) {
		s.Fail("psim: snapshot has %d flows, plan has %d", n, len(a.Plan.Flows))
		return
	}
	if s.Loading() {
		// A hybrid rebuild starts due flows synchronously at apply time,
		// registering endpoints the snapshot supersedes.
		for _, row := range e.Hosts {
			for _, h := range row {
				h.ResetEndpoints()
			}
		}
	}
	for i, fs := range a.Plan.Flows {
		if s.Err() != nil {
			return
		}
		src := e.Hosts[fs.Src.Leaf][fs.Src.Host]
		dst := e.Hosts[fs.Dst.Leaf][fs.Dst.Host]
		var sendLive, recvLive bool
		switch fs.Transport {
		case TransportDCQCN:
			sendLive = a.DCQCNSend[i] != nil && !a.DCQCNSend[i].SenderDone()
			recvLive = a.DCQCNRecv[i] != nil && !a.DCQCNRecv[i].Done()
		case TransportTCP:
			sendLive = a.TCPSend[i] != nil && !a.TCPSend[i].Acked()
			recvLive = a.TCPRecv[i] != nil && !a.TCPRecv[i].Done()
		}
		if s.Loading() {
			a.DCQCNSend[i], a.DCQCNRecv[i] = nil, nil
			a.TCPSend[i], a.TCPRecv[i] = nil, nil
		}
		s.Bool(&sendLive)
		if sendLive {
			switch {
			case fs.Transport == TransportDCQCN && s.Loading():
				a.DCQCNSend[i] = dcqcn.RestoreSender(src.Net(), src, s)
			case fs.Transport == TransportDCQCN:
				a.DCQCNSend[i].Sync(s)
			case fs.Transport == TransportTCP && s.Loading():
				a.TCPSend[i] = tcp.RestoreSender(src.Net(), src, s)
			case fs.Transport == TransportTCP:
				a.TCPSend[i].Sync(s)
			}
		}
		s.Bool(&recvLive)
		if recvLive {
			switch {
			case fs.Transport == TransportDCQCN && s.Loading():
				a.DCQCNRecv[i] = dcqcn.RestoreReceiver(dst, func(rx *dcqcn.Receiver) { a.restoredDone(i, rx.End) }, s)
			case fs.Transport == TransportDCQCN:
				a.DCQCNRecv[i].Sync(s)
			case fs.Transport == TransportTCP && s.Loading():
				a.TCPRecv[i] = tcp.RestoreReceiver(dst, func(rx *tcp.Receiver) { a.restoredDone(i, rx.End) }, s)
			case fs.Transport == TransportTCP:
				a.TCPRecv[i].Sync(s)
			}
		}
		codec.Int(s, &a.End[i])
	}
	if !s.Loading() || s.Err() != nil {
		return
	}
	for _, sh := range e.Shards {
		err := sh.Net.ResolveWaiters(a.waiter)
		if err != nil {
			s.Fail("%v", err)
			return
		}
	}
}

// waiter resolves a NIC waiter recorded in a snapshot to the restored
// sender it names. A TCP sender can be acknowledged in full while still
// parked: it is not saved (only live senders are), but it still holds its
// place in the FIFO, so it comes back as a netsim.FinishedWaiter once its
// flow has completed. A DCQCN sender cannot finish while parked — parking
// leaves its pacing timer idle, so only its own NICReady turn can send the
// last byte — and stays an error like any unknown reference.
func (a *Applied) waiter(kind uint8, flow netsim.FlowID) netsim.Waiter {
	idx := int(flow) - 1
	if idx < 0 || idx >= len(a.Plan.Flows) {
		return nil
	}
	switch kind {
	case netsim.WaiterDCQCN:
		if f := a.DCQCNSend[idx]; f != nil {
			return f
		}
	case netsim.WaiterTCP:
		if f := a.TCPSend[idx]; f != nil {
			return f
		}
		if a.Plan.Flows[idx].Transport == TransportTCP && a.End[idx] != 0 {
			return netsim.FinishedWaiter(kind, flow)
		}
	}
	return nil
}

// restoredDone is the completion callback of a restored receiver: the same
// per-flow slot writes the original apply-time binding makes.
func (a *Applied) restoredDone(i int, end simtime.Time) {
	a.End[i] = end
	if a.Hybrid != nil {
		a.Hybrid.packetDone[i] = true
	}
}

// Sync saves or restores the sampler's accumulated goodput series and the
// baseline counters the next sample will difference against. A restore
// overlays a freshly constructed sampler over the same ports, so the
// resumed run extends the series exactly as the uninterrupted run would
// have.
func (sp *Sampler) Sync(s *codec.Stream) {
	s.Tag("sampler")
	n := len(sp.Times)
	s.Len(&n, 1+8)
	if s.Loading() {
		sp.Times = slices.Grow(sp.Times[:0], n)[:n]
		sp.Gbps = slices.Grow(sp.Gbps[:0], n)[:n]
	}
	for i := range sp.Times {
		codec.Int(s, &sp.Times[i])
		codec.Float(s, &sp.Gbps[i])
	}
	codec.Uint(s, &sp.last)
	codec.Int(s, &sp.lastT)
	codec.Int(s, &sp.nextAt)
}

// Sync saves or restores the hybrid bookkeeping: the fast-forward engine's
// full state, the not-yet-started plan indices, and the per-flow
// packet-mode registrations with their mid-window completion marks. The
// transports themselves are synced by Applied.Sync. A restore overlays a
// freshly rebuilt ApplyHybrid instantiation, re-binding flow callbacks
// through the same bind path the original admissions used; run it after
// Engine.Sync (queues cleared, clocks restored) and before Applied.Sync.
func (h *HybridState) Sync(s *codec.Stream) {
	s.Tag("psim-hybrid")
	h.Eng.Sync(s, func(id uint64) (func(*hybrid.Flow, int64), func(*hybrid.Flow, simtime.Time)) {
		i := int(id) - 1
		if i < 0 || i >= len(h.p.Flows) {
			s.Fail("psim: hybrid flow id %d outside the plan", id)
			return nil, nil
		}
		return h.bind(i)
	})
	np := len(h.pending)
	s.Len(&np, 1)
	if s.Loading() {
		if np > len(h.p.Flows) {
			s.Fail("psim: hybrid snapshot has %d pending flows, plan has %d", np, len(h.p.Flows))
			return
		}
		h.pending = slices.Grow(h.pending[:0], np)[:np]
	}
	for i := range h.pending {
		codec.Int(s, &h.pending[i])
		if s.Err() == nil && (h.pending[i] < 0 || h.pending[i] >= len(h.p.Flows)) {
			s.Fail("psim: pending flow index %d outside the plan", h.pending[i])
		}
	}
	for i := range h.hflows {
		s.Bool(&h.packetDone[i])
		live := h.hflows[i] != nil
		s.Bool(&live)
		if live {
			h.Eng.SyncFlow(s, &h.hflows[i])
		} else if s.Loading() {
			h.hflows[i] = nil
		}
	}
}
