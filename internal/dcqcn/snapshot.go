package dcqcn

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. A live Flow (reaction point) or Receiver (notification
// point) serializes its complete dynamic state through Sync; restore
// constructors rebuild the object on a freshly restored Network —
// registering the endpoint and re-arming timers at their recorded (time,
// seq) slots, without the initial trySend or any other construction side
// effect. Completed halves unregister themselves and are never enumerated,
// so only live flows appear in snapshots.

// Sync saves or restores the parameters.
func (p *Params) Sync(s *codec.Stream) {
	codec.Int(s, &p.MTU)
	codec.Int(s, &p.Prio)
	codec.Int(s, &p.CNPInterval)
	codec.Float(s, &p.G)
	codec.Int(s, &p.AlphaTimer)
	codec.Int(s, &p.IncreaseTimer)
	codec.Int(s, &p.ByteCounter)
	codec.Int(s, &p.FastRecoverySteps)
	codec.Float(s, &p.RateAI)
	codec.Float(s, &p.RateHAI)
	codec.Float(s, &p.MinRate)
	codec.Float(s, &p.InitRate)
	s.Bool(&p.ClampTargetRate)
}

// Sync saves or restores the reaction point's dynamic state. On restore
// it re-arms the timers; RestoreSender does the rest.
func (f *Flow) Sync(s *codec.Stream) {
	s.Tag("dcqcn-tx")
	codec.Uint(s, &f.ID)
	codec.Int(s, &f.DstID)
	codec.Int(s, &f.Size)
	f.P.Sync(s)
	codec.Int(s, &f.Start)
	codec.Float(s, &f.line)
	codec.Float(s, &f.rc)
	codec.Float(s, &f.rt)
	codec.Float(s, &f.alpha)
	codec.Int(s, &f.tc)
	codec.Int(s, &f.bc)
	codec.Int(s, &f.incBytes)
	codec.Int(s, &f.sent)
	s.Bool(&f.increased)
	codec.Uint(s, &f.CNPs)
	codec.Uint(s, &f.RateCuts)
	f.net.Q.SyncTimer(s, &f.paceEv, f.trySendFn)
	f.net.Q.SyncTimer(s, &f.alphaEv, f.alphaFn)
	f.net.Q.SyncTimer(s, &f.incEv, f.incFn)
}

// RestoreSender rebuilds a live reaction point from s on src, registering
// its endpoint and re-arming its timers. No packets are sent and no RNG is
// drawn.
func RestoreSender(net *netsim.Network, src *netsim.Host, s *codec.Stream) *Flow {
	f := &Flow{Src: src, net: net}
	f.trySendFn = f.trySend
	f.alphaFn = f.alphaTick
	f.incFn = f.incTick
	f.Sync(s)
	if s.Err() != nil {
		return nil
	}
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	return f
}

// Sync saves or restores the notification point's dynamic state.
func (rx *Receiver) Sync(s *codec.Stream) {
	s.Tag("dcqcn-rx")
	codec.Uint(s, &rx.ID)
	codec.Int(s, &rx.SrcID)
	codec.Int(s, &rx.Size)
	rx.P.Sync(s)
	codec.Int(s, &rx.Start)
	codec.Int(s, &rx.rcvd)
	codec.Int(s, &rx.lastCNP)
	s.Bool(&rx.cnpSent)
	codec.Uint(s, &rx.MarkedSeen)
}

// RestoreReceiver rebuilds a live notification point from s on dst.
// onDone is the world's completion callback, re-bound by the caller (it
// cannot be serialized).
func RestoreReceiver(dst *netsim.Host, onDone func(*Receiver), s *codec.Stream) *Receiver {
	rx := &Receiver{Dst: dst, net: dst.Net(), onDone: onDone}
	rx.Sync(s)
	if s.Err() != nil {
		return nil
	}
	dst.Register(rx.ID, netsim.EndpointFunc(rx.handle))
	return rx
}
