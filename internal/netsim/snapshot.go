package netsim

import (
	"fmt"
	"math/rand"

	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support for the packet engine.
//
// A Network snapshot is restored into a *freshly rebuilt* world: the same
// construction code (topology, plan application) runs again, so every
// closure, pre-bound method value, and routing table exists and is bound
// to live objects; Sync then clears the rebuilt event queue,
// restores counters and per-object dynamic state, re-materializes the
// in-flight packet population at its recorded (time, seq) slots, and
// fast-forwards every RNG stream to its recorded draw count. Because the
// streams are replayed — not replaced — the numeric sequences are exactly
// those of the uninterrupted run, which is what makes restore-then-run
// bit-identical to never having snapshotted.

// CountedSource wraps a rand.Source64 and counts draws. Int63 and Uint64
// advance the underlying generator by exactly one step each, so a stream
// is fully described by (derivation, draw count): restore rebuilds the
// source from the same derivation and fast-forwards the difference.
type CountedSource struct {
	src rand.Source64
	n   uint64
}

func NewCountedSource(s rand.Source) *CountedSource {
	return &CountedSource{src: s.(rand.Source64)}
}

func (c *CountedSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *CountedSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *CountedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// skipTo fast-forwards the stream to the target draw count. The rebuilt
// world must be behind the snapshot (construction draws are a prefix of
// the saved run's draws); anything else means the snapshot belongs to a
// different world. A skip longer than maxSkip is refused rather than
// spun through, so a corrupt count cannot stall a restore for minutes.
func (c *CountedSource) skipTo(target uint64) error {
	if target < c.n {
		return fmt.Errorf("rng stream at draw %d is ahead of snapshot draw %d (snapshot from a different world?)", c.n, target)
	}
	if target-c.n > maxSkip {
		return fmt.Errorf("rng stream skip of %d draws exceeds %d (corrupt snapshot?)", target-c.n, uint64(maxSkip))
	}
	for c.n < target {
		c.src.Uint64()
		c.n++
	}
	return nil
}

// maxSkip bounds one stream's fast-forward. Streams draw well under one
// value per hundred events (a 20 ms, 128-host sweep world draws about
// 5·10^4 per stream), so 2^28 draws is orders of magnitude past any
// snapshotted run, and skipping it takes under a second.
const maxSkip = 1 << 28

// Sync saves the stream's draw count or, on restore, fast-forwards the
// rebuilt stream to it.
func (c *CountedSource) Sync(s *codec.Stream) {
	n := c.n
	codec.Uint(s, &n)
	if s.Loading() && s.Err() == nil {
		if err := c.skipTo(n); err != nil {
			s.Fail("%v", err)
		}
	}
}

// WaiterRef identifies a parked NIC waiter in a snapshot.
type WaiterRef struct {
	Kind uint8
	Flow FlowID
}

// FinishedWaiter is the restored stand-in for a parked sender that had
// already finished when the snapshot was taken (a TCP sender acknowledged
// while parked). It keeps the sender's place in the FIFO — newcomers
// still line up behind it — and does nothing when its turn comes, which
// is exactly what the finished sender would have done.
func FinishedWaiter(kind uint8, flow FlowID) Waiter { return finishedWaiter{kind, flow} }

type finishedWaiter WaiterRef

func (finishedWaiter) NICReady() {}

func (w finishedWaiter) WaiterID() (uint8, FlowID) { return w.Kind, w.Flow }

// Sync saves or restores every wire-visible field of p.
func (p *Packet) Sync(s *codec.Stream) {
	codec.Uint(s, &p.Kind)
	codec.Uint(s, &p.Flow)
	codec.Int(s, &p.Src)
	codec.Int(s, &p.Dst)
	codec.Int(s, &p.Prio)
	codec.Int(s, &p.Size)
	codec.Int(s, &p.Seq)
	codec.Int(s, &p.FlowBytes)
	s.Bool(&p.Last)
	s.Bool(&p.Retx)
	s.Bool(&p.ECT)
	s.Bool(&p.CE)
	s.Bool(&p.ECE)
	codec.Int(s, &p.PausePrio)
	codec.Int(s, &p.inPort)
}

// packetMinBytes is the smallest encoding of one Packet: ten one-byte
// varints and five bools.
const packetMinBytes = 15

// syncPacket saves *pp or, on restore, loads it into a pooled packet.
func (n *Network) syncPacket(s *codec.Stream, pp **Packet) {
	if s.Loading() {
		*pp = n.AllocPacket()
	}
	(*pp).Sync(s)
}

// Sync saves or restores the network's full dynamic state: event-queue
// counters, RNG draw counts, per-node buffers and counters, and every live
// packet (queued, serializing, or propagating). A restore targets a
// freshly rebuilt network whose topology matches the saved one exactly;
// nodes are visited in the same id order. Transport endpoints and parked
// NIC waiters are restored separately (by their owners, then
// ResolveWaiters).
func (n *Network) Sync(s *codec.Stream) {
	s.Tag("netsim")
	n.Q.Sync(s)
	if n.rootSrc == nil {
		panic("netsim: Sync on a Network not built with New")
	}
	n.rootSrc.Sync(s)
	codec.Uint(s, &n.nextFlow)
	for id, node := range n.nodes {
		switch v := node.(type) {
		case *Host:
			s.Tag("host")
			syncNodeID(s, "host", id)
			v.sync(s)
		case *Switch:
			s.Tag("switch")
			syncNodeID(s, "switch", id)
			v.sync(s)
		}
		if s.Err() != nil {
			return
		}
	}
	s.Tag("endnodes")
	warm := len(n.pktFree)
	codec.Int(s, &warm)
	codec.Uint(s, &n.pktAlloced)
	if s.Loading() && s.Err() == nil {
		for len(n.pktFree) < min(warm, maxPacketPrewarm) {
			n.pktFree = append(n.pktFree, &Packet{pooled: true})
		}
	}
}

// maxPacketPrewarm caps the restored packet-pool hint, which sizes an
// allocation: a corrupt stream must not demand an unbounded one. A world
// that needs more packets allocates the rest on demand.
const maxPacketPrewarm = 1 << 18

// syncNodeID records a node's id and, on restore, checks it against the
// rebuilt world's.
func syncNodeID(s *codec.Stream, kind string, id int) {
	got := id
	codec.Int(s, &got)
	if s.Err() == nil && got != id {
		s.Fail("netsim: snapshot %s id %d, world has %d (layout mismatch)", kind, got, id)
	}
}

func (n *Network) syncNodeRng(s *codec.Stream, id int) {
	src := n.nodeSrc[id]
	if src == nil {
		panic("netsim: node has no counted rng stream")
	}
	src.Sync(s)
}

func (h *Host) sync(s *codec.Stream) {
	h.net.syncNodeRng(s, h.id)
	h.Port.sync(s)
}

func (sw *Switch) sync(s *codec.Stream) {
	sw.net.syncNodeRng(s, sw.id)
	codec.Int(s, &sw.totalUsed)
	for pi := range sw.Ports {
		for prio := 0; prio < NumPrio; prio++ {
			codec.Int(s, &sw.ingUsed[pi][prio])
			s.Bool(&sw.pauseSent[pi][prio])
		}
	}
	codec.Uint(s, &sw.DropsTotal)
	codec.Uint(s, &sw.MarksTotal)
	codec.Uint(s, &sw.WREDDrops)
	codec.Uint(s, &sw.OverflowDrops)
	codec.Uint(s, &sw.RouteBlackholes)
	for _, p := range sw.Ports {
		p.sync(s)
	}
}

func (p *Port) sync(s *codec.Stream) {
	s.Tag("port")
	codec.Float(s, &p.Bandwidth)
	s.Bool(&p.busy)
	s.Bool(&p.down)
	for i := 0; i < NumPrio; i++ {
		s.Bool(&p.paused[i])
		codec.Int(s, &p.pausedSince[i])
	}
	codec.Int(s, &p.rr)
	codec.Uint(s, &p.txSeq)
	codec.Uint(s, &p.Fidelity)
	codec.Uint(s, &p.TxBytesTotal)
	codec.Uint(s, &p.AnalyticTxBytes)
	codec.Uint(s, &p.RxBytesTotal)
	codec.Uint(s, &p.PauseRxEvents)
	codec.Uint(s, &p.PauseTxEvents)
	codec.Int(s, &p.PausedDuration)
	codec.Uint(s, &p.BlackholedPackets)
	codec.Uint(s, &p.BlackholedBytes)
	busy := p.txPkt != nil
	s.Bool(&busy)
	if busy {
		p.net.syncPacket(s, &p.txPkt)
		codec.Int(s, &p.txAt)
		codec.Uint(s, &p.txEvSeq)
		p.net.Q.RestoreCall(s, p.txAt, p.txEvSeq, p.txDoneFn, p.txPkt)
	}
	n := len(p.flight) - p.fhead
	s.Len(&n, packetMinBytes+2)
	arrive := p.arriveFn
	if p.remote != nil {
		arrive = p.remoteArriveFn
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		var rec flightRec
		if !s.Loading() {
			rec = p.flight[p.fhead+i]
		}
		p.net.syncPacket(s, &rec.pkt)
		codec.Int(s, &rec.at)
		codec.Uint(s, &rec.key)
		if s.Loading() {
			p.flightPush(rec)
			p.net.Q.RestoreCall(s, rec.at, rec.key, arrive, rec.pkt)
		}
	}
	for _, q := range p.Queues {
		q.sync(s, p.net)
	}
}

func (q *EgressQueue) sync(s *codec.Stream, net *Network) {
	s.Tag("eq")
	codec.Int(s, &q.RED.Kmin)
	codec.Int(s, &q.RED.Kmax)
	codec.Float(s, &q.RED.Pmax)
	s.Bool(&q.ECNEnabled)
	n := q.Len()
	s.Len(&n, packetMinBytes)
	if s.Loading() {
		q.pkts = q.pkts[:0]
		q.head = 0
		q.bytes = 0
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		if !s.Loading() {
			q.pkts[q.head+i].Sync(s)
			continue
		}
		var pkt *Packet
		net.syncPacket(s, &pkt)
		q.pkts = append(q.pkts, pkt)
		q.bytes += pkt.Size
	}
	codec.Float(s, &q.byteTime)
	codec.Int(s, &q.lastChange)
	codec.Int(s, &q.deficit)
	s.Bool(&q.inTurn)
	codec.Uint(s, &q.TxBytes)
	codec.Uint(s, &q.AnalyticTxBytes)
	codec.Uint(s, &q.TxPackets)
	codec.Uint(s, &q.TxMarkedBytes)
	codec.Uint(s, &q.TxMarkedPkts)
	codec.Uint(s, &q.EnqBytes)
	codec.Uint(s, &q.DropPackets)
	codec.Uint(s, &q.DropBytes)
	nw := len(q.waiters) - q.whead
	s.Len(&nw, 2)
	if s.Loading() {
		// Drop waiters parked by construction-time transports (hybrid
		// rebuilds start due flows at apply time); the snapshot's refs
		// replace them.
		clear(q.waiters)
		q.waiters = q.waiters[:0]
		q.whead = 0
		q.restoreWaiters = q.restoreWaiters[:0]
	}
	for i := 0; i < nw && s.Err() == nil; i++ {
		var ref WaiterRef
		if !s.Loading() {
			ref.Kind, ref.Flow = q.waiters[q.whead+i].WaiterID()
		}
		codec.Uint(s, &ref.Kind)
		codec.Uint(s, &ref.Flow)
		if s.Loading() {
			q.restoreWaiters = append(q.restoreWaiters, ref)
		}
	}
}

// ResolveWaiters re-parks NIC waiters recorded in a restored snapshot,
// once the transport objects they refer to have been rebuilt. resolve maps
// a (kind, flow) identity to the live Waiter; it must succeed for every
// recorded reference.
func (n *Network) ResolveWaiters(resolve func(kind uint8, flow FlowID) Waiter) error {
	for _, node := range n.nodes {
		var ports []*Port
		switch v := node.(type) {
		case *Host:
			ports = []*Port{v.Port}
		case *Switch:
			ports = v.Ports
		default:
			continue
		}
		for _, p := range ports {
			for _, q := range p.Queues {
				for _, ref := range q.restoreWaiters {
					wt := resolve(ref.Kind, ref.Flow)
					if wt == nil {
						return fmt.Errorf("netsim: no waiter for kind %d flow %d", ref.Kind, ref.Flow)
					}
					q.waiters = append(q.waiters, wt)
				}
				q.restoreWaiters = q.restoreWaiters[:0]
			}
		}
	}
	return nil
}
