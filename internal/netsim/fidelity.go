package netsim

// Fidelity is the simulation mode a port's traffic is advanced under when a
// hybrid-fidelity engine (internal/hybrid) drives the run. The packet engine
// itself never reads it — every packet that reaches a port is simulated at
// full fidelity regardless — it is bookkeeping the hybrid engine maintains so
// observers (traces, manifests, tests) can see which links are currently
// fast-forwarded in closed form and which are demoted to packet level.
type Fidelity uint8

const (
	// FidelityPacket is full packet-level simulation: every frame is an
	// event. This is the default for every port and the only mode that
	// exists when no hybrid engine is attached.
	FidelityPacket Fidelity = iota
	// FidelityAnalytic marks a port whose uncongested traffic is being
	// advanced in closed form by a hybrid engine; bytes it would have
	// serialized are credited to AnalyticTxBytes instead of TxBytesTotal.
	FidelityAnalytic
)

func (f Fidelity) String() string {
	if f == FidelityAnalytic {
		return "analytic"
	}
	return "packet"
}

// CreditAnalyticTx accounts wire bytes that a hybrid engine advanced across
// this port in closed form, attributed to the egress queue serving prio (if
// any). Together with the packet-level counters this keeps per-port byte
// conservation exact across fidelity transitions:
//
//	TxBytesTotal + AnalyticTxBytes
//
// is the total traffic the port carried regardless of how much of it was
// ever materialized as packets.
func (p *Port) CreditAnalyticTx(prio int, wireBytes uint64) {
	p.AnalyticTxBytes += wireBytes
	if q := p.Queue(prio); q != nil {
		q.AnalyticTxBytes += wireBytes
	}
}
