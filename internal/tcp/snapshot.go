package tcp

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support, mirroring package dcqcn: live senders and receivers
// serialize their complete dynamic state through Sync, and restore
// constructors rebuild them on a freshly restored Network without
// construction side effects (no initial trySend, no parameter
// re-normalization — Params were normalized when the flow first started
// and are saved verbatim). Completed halves unregister themselves, so only
// live flows appear in snapshots.

// Sync saves or restores the parameters.
func (p *Params) Sync(s *codec.Stream) {
	codec.Int(s, &p.MTU)
	codec.Int(s, &p.Prio)
	s.Bool(&p.ECN)
	codec.Float(s, &p.G)
	codec.Int(s, &p.InitCwndPkts)
	codec.Int(s, &p.MaxCwndPkts)
	codec.Int(s, &p.RTOMin)
	codec.Int(s, &p.DupAckThresh)
}

// Sync saves or restores the sender's dynamic state. The send-time map is
// encoded in ascending sequence order, so identical states produce
// identical bytes. On restore it re-arms the RTO; RestoreSender does the
// rest.
func (f *Flow) Sync(s *codec.Stream) {
	s.Tag("tcp-tx")
	codec.Uint(s, &f.ID)
	codec.Int(s, &f.DstID)
	codec.Int(s, &f.Size)
	f.P.Sync(s)
	codec.Int(s, &f.Start)
	codec.Int(s, &f.End)
	codec.Int(s, &f.sndUna)
	codec.Int(s, &f.sndNext)
	codec.Float(s, &f.cwnd)
	codec.Float(s, &f.ssthresh)
	s.Bool(&f.inRecovery)
	codec.Int(s, &f.recoverEnd)
	codec.Int(s, &f.dupAcks)
	codec.Float(s, &f.alpha)
	codec.Int(s, &f.ackedBytes)
	codec.Int(s, &f.markedBytes)
	codec.Int(s, &f.winEnd)
	codec.Int(s, &f.cwndCutSeq)
	codec.Int(s, &f.srtt)
	codec.Int(s, &f.rttvar)
	codec.Uint(s, &f.Retransmits)
	codec.Uint(s, &f.Timeouts)
	codec.Uint(s, &f.ECEAcks)
	codec.IntMap(s, &f.sendTimes, codec.Int)
	f.net.Q.SyncTimer(s, &f.rtoEv, f.onRTOFn)
}

// RestoreSender rebuilds a live sender from s on src, registering its
// endpoint and re-arming the RTO at its recorded slot. No packets are
// sent.
func RestoreSender(net *netsim.Network, src *netsim.Host, s *codec.Stream) *Flow {
	f := &Flow{Src: src, net: net}
	f.trySendFn = f.trySend
	f.onRTOFn = f.onRTO
	f.Sync(s)
	if s.Err() != nil {
		return nil
	}
	src.Register(f.ID, netsim.EndpointFunc(f.senderHandle))
	return f
}

// Sync saves or restores the receiver's dynamic state.
func (rx *Receiver) Sync(s *codec.Stream) {
	s.Tag("tcp-rx")
	codec.Uint(s, &rx.ID)
	codec.Int(s, &rx.SrcID)
	codec.Int(s, &rx.Size)
	rx.P.Sync(s)
	codec.Int(s, &rx.Start)
	codec.Int(s, &rx.rcvNext)
	codec.IntMap(s, &rx.ooo, codec.Int)
}

// RestoreReceiver rebuilds a live receiver from s on dst. onDone is the
// world's completion callback, re-bound by the caller.
func RestoreReceiver(dst *netsim.Host, onDone func(*Receiver), s *codec.Stream) *Receiver {
	rx := &Receiver{Dst: dst, net: dst.Net(), onDone: onDone}
	rx.Sync(s)
	if s.Err() != nil {
		return nil
	}
	dst.Register(rx.ID, netsim.EndpointFunc(rx.handle))
	return rx
}
