// Package obs is the observability subsystem: structured event tracing,
// per-run manifests, metrics export, and live introspection for the
// simulator and the ACC tuners.
//
// The design goal is zero overhead when disabled. All hook points call
// methods on a *Tracer that may be nil; every method starts with a nil
// check and returns immediately, so the instrumented hot paths (packet
// drops, ECN marks, PFC, agent decisions) keep the repo's zero-allocation
// guarantees when tracing is off. When enabled, records are fixed-size
// structs (no pointers, no strings) appended to a pre-allocated bounded
// ring buffer under a mutex — trace appends never allocate after
// construction, and concurrent experiment runs (exp.forEachParallel) may
// share one Tracer safely.
//
// Trace records are snapshots: they copy the scalar fields they need at
// the hook point and never retain a *netsim.Packet, so tracing composes
// with the packet pool's ownership rules (see DESIGN.md "Observability").
package obs

import (
	"sync"

	"github.com/accnet/acc/internal/simtime"
)

// Kind discriminates trace record types.
type Kind uint8

// Trace record kinds, one per hooked event class.
const (
	KindDrop      Kind = iota // packet dropped (Reason says why)
	KindECNMark               // packet CE-marked by WRED at a switch
	KindPFCPause              // PFC pause asserted toward an upstream port
	KindPFCResume             // PFC pause lifted
	KindWRED                  // WRED/ECN template update on a queue
	KindCNP                   // DCQCN congestion notification received by a sender
	KindRateCut               // DCQCN multiplicative rate decrease
	KindTCPRTO                // TCP retransmission timeout fired
	KindAgent                 // ACC agent state→action→reward transition
	KindLink                  // link administrative state change (up/down)
	KindDemote                // hybrid engine demoted a link to packet fidelity
	KindPromote               // hybrid engine promoted a link back to analytic fidelity
	KindFlowStart             // workload engine launched a flow (trace recording)

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindECNMark:
		return "ecn_mark"
	case KindPFCPause:
		return "pfc_pause"
	case KindPFCResume:
		return "pfc_resume"
	case KindWRED:
		return "wred_update"
	case KindCNP:
		return "cnp"
	case KindRateCut:
		return "rate_cut"
	case KindTCPRTO:
		return "tcp_rto"
	case KindAgent:
		return "agent_step"
	case KindLink:
		return "link_state"
	case KindDemote:
		return "fidelity_demote"
	case KindPromote:
		return "fidelity_promote"
	case KindFlowStart:
		return "flow_start"
	}
	return "unknown"
}

// DropReason attributes a KindDrop record to its cause. The per-reason
// split mirrors the per-reason counters on netsim.Switch/Port.
type DropReason uint8

const (
	DropNone           DropReason = iota
	DropWRED                      // WRED dropped a non-ECT packet
	DropOverflow                  // shared-buffer overflow at a switch
	DropRouteBlackhole            // every ECMP candidate link was down
	DropLinkBlackhole             // in-flight loss on an administratively down link

	numReasons
)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return ""
	case DropWRED:
		return "wred"
	case DropOverflow:
		return "overflow"
	case DropRouteBlackhole:
		return "route_blackhole"
	case DropLinkBlackhole:
		return "link_blackhole"
	}
	return "unknown"
}

// Record is one trace event. It is a fixed-size value type — no pointers,
// no strings — so the ring buffer holds records inline and appending never
// allocates. Field meaning varies by Kind; unused fields are zero. V1..V3
// carry kind-specific scalars:
//
//	KindWRED:    V1=Kmin bytes, V2=Kmax bytes, V3=Pmax
//	KindRateCut: V1=old rate bits/s, V2=new rate bits/s, V3=alpha
//	KindTCPRTO:  V1=RTO seconds
//	KindAgent:   V1=reward, V2=utilization proxy (unused today)
//	KindLink:    V1=1 down, 0 up
//	KindDemote:  V1=analytic flows converted, V2=fluid utilization at the trigger
//	KindPromote: V1=cold windows observed before promotion
//	KindFlowStart: Action=workload class index, V1=flow bytes
type Record struct {
	Time   simtime.Time
	Kind   Kind
	Reason DropReason
	Node   int32 // node id (switch/host), -1 when not applicable
	Shard  int32 // owning shard in a sharded run (psim), -1 otherwise
	Port   int32 // port index within the node, -1 when not applicable
	Prio   int32 // traffic class, -1 when not applicable
	Action int32 // ACC template action index (KindAgent/KindWRED)
	Flow   uint64
	Size   int32 // packet bytes on the wire
	V1     float64
	V2     float64
	V3     float64
}

// Counters is a snapshot of the tracer's monotonic totals, suitable for
// metrics export and manifest embedding.
type Counters struct {
	Emitted uint64            // records emitted (including overwritten)
	ByKind  map[string]uint64 // kind name -> count
	Drops   map[string]uint64 // drop reason -> count
}

// Tracer appends typed trace records to a bounded ring buffer and keeps
// per-kind / per-drop-reason counters. A nil *Tracer is the disabled state:
// every hook method no-ops. Non-nil Tracers are safe for concurrent use;
// experiment harnesses share one Tracer across parallel Networks.
type Tracer struct {
	mu       sync.Mutex
	ring     []Record // capacity fixed at construction
	next     uint64   // total records emitted; ring index is next % cap
	kinds    [numKinds]uint64
	dropRsns [numReasons]uint64
	shardOf  func(node int32) int32 // nil when the run is not sharded
}

// DefaultRingCap is the trace ring capacity used when none is given.
const DefaultRingCap = 1 << 16

// NewTracer returns an enabled tracer whose ring holds the last ringCap
// records (ringCap <= 0 selects DefaultRingCap).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{ring: make([]Record, 0, ringCap)}
}

// SetShardMap installs the node→shard labeling for a sharded run (psim).
// The map must be immutable for the tracer's lifetime — shard ownership is
// fixed at partition time — and must be installed before the run starts;
// emit stamps each record's Shard under the ring mutex. A nil shardOf (the
// default) labels every record shard -1.
func (t *Tracer) SetShardMap(shardOf func(node int32) int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shardOf = shardOf
	t.mu.Unlock()
}

// emit appends one record, overwriting the oldest once the ring is full.
func (t *Tracer) emit(r Record) {
	t.mu.Lock()
	r.Shard = -1
	if t.shardOf != nil && r.Node >= 0 {
		r.Shard = t.shardOf(r.Node)
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next%uint64(cap(t.ring))] = r
	}
	t.next++
	t.kinds[r.Kind]++
	if r.Kind == KindDrop {
		t.dropRsns[r.Reason]++
	}
	t.mu.Unlock()
}

// Drop records a packet drop with its reason.
func (t *Tracer) Drop(now simtime.Time, reason DropReason, node, port, prio int, flow uint64, size int) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindDrop, Reason: reason,
		Node: int32(node), Port: int32(port), Prio: int32(prio), Flow: flow, Size: int32(size)})
}

// Mark records a WRED CE mark at a switch egress queue.
func (t *Tracer) Mark(now simtime.Time, node, port, prio int, flow uint64, size int) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindECNMark,
		Node: int32(node), Port: int32(port), Prio: int32(prio), Flow: flow, Size: int32(size)})
}

// PFC records a pause asserted (pause=true) or lifted toward the upstream
// device on the given ingress port and priority.
func (t *Tracer) PFC(now simtime.Time, node, port, prio int, pause bool) {
	if t == nil {
		return
	}
	k := KindPFCResume
	if pause {
		k = KindPFCPause
	}
	t.emit(Record{Time: now, Kind: k, Node: int32(node), Port: int32(port), Prio: int32(prio)})
}

// WREDUpdate records a template change on one egress queue. action is the
// ACC template index, or -1 for static (SetRED) installs.
func (t *Tracer) WREDUpdate(now simtime.Time, node, port, prio, action int, kminBytes, kmaxBytes int, pmax float64) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindWRED,
		Node: int32(node), Port: int32(port), Prio: int32(prio), Action: int32(action),
		V1: float64(kminBytes), V2: float64(kmaxBytes), V3: pmax})
}

// CNP records a DCQCN congestion notification arriving at a sender.
func (t *Tracer) CNP(now simtime.Time, node int, flow uint64) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindCNP, Node: int32(node), Port: -1, Prio: -1, Flow: flow})
}

// RateCut records a DCQCN multiplicative decrease (rates in bits/s).
func (t *Tracer) RateCut(now simtime.Time, node int, flow uint64, oldRate, newRate, alpha float64) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindRateCut, Node: int32(node), Port: -1, Prio: -1,
		Flow: flow, V1: oldRate, V2: newRate, V3: alpha})
}

// TCPRTO records a TCP retransmission timeout firing.
func (t *Tracer) TCPRTO(now simtime.Time, node int, flow uint64, rto simtime.Duration) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindTCPRTO, Node: int32(node), Port: -1, Prio: -1,
		Flow: flow, V1: rto.Seconds()})
}

// AgentStep records one ACC tuner decision: monitored queue index, chosen
// template action, and the reward measured this interval.
func (t *Tracer) AgentStep(now simtime.Time, node, queue, prio, action int, reward float64) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindAgent,
		Node: int32(node), Port: int32(queue), Prio: int32(prio), Action: int32(action), V1: reward})
}

// FidelityDemote records a hybrid-engine link demotion: the analytic flows
// crossing the port were converted to packet level (flows of them) because a
// deterministic trigger fired at fluid utilization util.
func (t *Tracer) FidelityDemote(now simtime.Time, node, port, flows int, util float64) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindDemote,
		Node: int32(node), Port: int32(port), Prio: -1, V1: float64(flows), V2: util})
}

// FidelityPromote records a hybrid-engine link promotion back to analytic
// fidelity after cold consecutive quiet windows.
func (t *Tracer) FidelityPromote(now simtime.Time, node, port, cold int) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindPromote,
		Node: int32(node), Port: int32(port), Prio: -1, V1: float64(cold)})
}

// FlowStart records the workload engine launching one flow at its source
// host: the trace-recording hook. class is the workload class index (-1
// when classless).
func (t *Tracer) FlowStart(now simtime.Time, node int, flow uint64, bytes int64, class int) {
	if t == nil {
		return
	}
	t.emit(Record{Time: now, Kind: KindFlowStart,
		Node: int32(node), Port: -1, Prio: -1, Action: int32(class), Flow: flow, V1: float64(bytes)})
}

// LinkState records an administrative link up/down transition.
func (t *Tracer) LinkState(now simtime.Time, node, port int, down bool) {
	if t == nil {
		return
	}
	v := 0.0
	if down {
		v = 1
	}
	t.emit(Record{Time: now, Kind: KindLink, Node: int32(node), Port: int32(port), Prio: -1, V1: v})
}

// Len returns the number of records currently resident in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Last copies out the most recent n records in emission order (oldest
// first). n <= 0 or n > resident returns everything resident.
func (t *Tracer) Last(n int) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	resident := len(t.ring)
	if n <= 0 || n > resident {
		n = resident
	}
	out := make([]Record, n)
	c := uint64(cap(t.ring))
	for i := 0; i < n; i++ {
		out[i] = t.ring[(t.next-uint64(n)+uint64(i))%c]
	}
	return out
}

// Snapshot returns the tracer's counter totals.
func (t *Tracer) Snapshot() Counters {
	if t == nil {
		return Counters{ByKind: map[string]uint64{}, Drops: map[string]uint64{}}
	}
	c := Counters{ByKind: map[string]uint64{}, Drops: map[string]uint64{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Emitted = t.next
	for k := Kind(0); k < numKinds; k++ {
		if t.kinds[k] > 0 {
			c.ByKind[k.String()] = t.kinds[k]
		}
	}
	for r := DropReason(1); r < numReasons; r++ {
		if t.dropRsns[r] > 0 {
			c.Drops[r.String()] = t.dropRsns[r]
		}
	}
	return c
}
