package hybrid

import (
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support — barrier-driven engines only (NewBarrier). Sequential
// engines schedule their own queue events; barrier engines hold all their
// dynamic state in plain fields, so a barrier-time capture is complete.
//
// Flows serialize their path as link registration indices, not by
// re-resolving Mesh.Path on restore: a fault between a flow's admission and
// the snapshot changes what Path would return, but never what the flow
// already crossed. Link flow lists are rebuilt from the restored flows
// (registration order survives removal, so a link's list is exactly the
// engine list filtered to its members). Link rate sums are restored as
// saved: the live sums were accumulated and drained in admission order,
// and re-summing the surviving demands would round differently.
// Callbacks cannot be serialized; Sync re-binds them through the caller's
// rebind function, keyed by flow id.

// Rebind returns the startPacket / onDone callbacks for a restored flow
// id: the same bindings the original StartFlow call used, so a restored
// flow demotes into exactly the transports a continuous run would have
// started.
type Rebind func(id uint64) (startPacket func(*Flow, int64), onDone func(*Flow, simtime.Time))

// Sync saves or restores the engine's dynamic state: mode accounting,
// per-link trigger state, and every live analytic and in-flight flow in
// registration order. Packet-mode flows are owned by their transports'
// adapters (see psim.HybridState) and synced there via SyncFlow. A restore
// overlays a freshly rebuilt engine with the same link registration (same
// fabric tables); rebind is consulted only on restore.
func (e *Engine) Sync(s *codec.Stream, rebind Rebind) {
	if e.q != nil {
		panic("hybrid: snapshots support barrier-driven engines only")
	}
	s.Tag("hybrid")
	codec.Uint(s, &e.Stats.FlowsStarted)
	codec.Uint(s, &e.Stats.AnalyticFlows)
	codec.Uint(s, &e.Stats.PacketFlows)
	codec.Uint(s, &e.Stats.Demotions)
	codec.Uint(s, &e.Stats.Promotions)
	codec.Uint(s, &e.Stats.AnalyticPayload)
	codec.Uint(s, &e.Stats.Ticks)
	s.Bool(&e.stopped)
	n := len(e.links)
	codec.Int(s, &n)
	if s.Err() == nil && n != len(e.links) {
		s.Fail("hybrid: snapshot has %d links, engine has %d (topology mismatch)", n, len(e.links))
		return
	}
	for _, l := range e.links {
		s.Bool(&l.hot)
		codec.Int(s, &l.cold)
		codec.Float(s, &l.reserved)
		codec.Float(s, &l.sumRate)
		codec.Int(s, &l.nPacket)
		codec.Uint(s, &l.lastPauseRx)
		s.Bool(&l.wasDown)
		if s.Loading() {
			l.flows = l.flows[:0]
		}
	}
	e.flows = e.syncFlows(s, e.flows, rebind)
	if s.Loading() {
		for _, f := range e.flows {
			for _, l := range f.Path {
				l.flows = append(l.flows, f)
			}
		}
	}
	e.inflight = e.syncFlows(s, e.inflight, rebind)
}

// syncFlows saves or restores one flow list; restored flows are rebound
// through rebind.
func (e *Engine) syncFlows(s *codec.Stream, fs []*Flow, rebind Rebind) []*Flow {
	n := len(fs)
	s.Len(&n, flowMinBytes)
	if s.Loading() {
		fs = fs[:0]
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		if !s.Loading() {
			e.SyncFlow(s, &fs[i])
			continue
		}
		var f *Flow
		e.SyncFlow(s, &f)
		if s.Err() != nil {
			break
		}
		f.startPacket, f.onDone = rebind(f.ID)
		fs = append(fs, f)
	}
	return fs
}

// flowMinBytes is the smallest encoding of one Flow: its tag, eight
// bytes of demand, and fourteen one-byte fields.
const flowMinBytes = 6 + 8 + 14

// SyncFlow saves *f or, on restore, loads a recycled Flow into *f with
// its path resolved against the engine's registered links. Restored
// callbacks are left nil; callers re-bind them (Sync does so through
// rebind; packet-mode flows restored by adapters need none — only
// PacketDone touches them).
func (e *Engine) SyncFlow(s *codec.Stream, f **Flow) {
	if s.Loading() {
		*f = e.newFlow()
	}
	(*f).Sync(s, e.links)
}

// Sync saves or restores one flow's full dynamic state, its path encoded
// as registration indices into links.
func (f *Flow) Sync(s *codec.Stream, links []*Link) {
	s.Tag("hflow")
	codec.Uint(s, &f.ID)
	codec.Int(s, &f.Size)
	codec.Int(s, &f.Prio)
	codec.Float(s, &f.Demand)
	np := len(f.Path)
	s.Len(&np, 1)
	if s.Loading() {
		f.Path = f.Path[:0]
	}
	for i := 0; i < np && s.Err() == nil; i++ {
		li := -1
		if !s.Loading() {
			li = f.Path[i].idx
		}
		codec.Int(s, &li)
		if s.Loading() && s.Err() == nil {
			if li < 0 || li >= len(links) {
				s.Fail("hybrid: flow path link index %d out of range", li)
				return
			}
			f.Path = append(f.Path, links[li])
		}
	}
	codec.Int(s, &f.Start)
	codec.Int(s, &f.End)
	codec.Uint(s, &f.Mode)
	codec.Int(s, &f.nFrames)
	codec.Int(s, &f.fullWire)
	codec.Int(s, &f.lastWire)
	codec.Int(s, &f.gap)
	codec.Int(s, &f.sendEnd)
	codec.Int(s, &f.frames)
	s.Bool(&f.completed)
}
