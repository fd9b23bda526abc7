package psim

// Bridge from the workload engine's flow traces to engine-independent
// plans. This lives in psim (not workload) because psim already sits above
// workload in the import order (via internal/acc).

import (
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/workload"
)

// PlanFromTrace converts a recorded/generated flow trace into a plan: trace
// flow i becomes plan flow i (and therefore netsim.FlowID(i+1) in every
// engine), preserving order exactly — the order is part of the trace, and
// it is what keeps equal-instant admissions identical between a run and its
// replay.
func PlanFromTrace(t *workload.Trace, hostBW simtime.Rate) *Plan {
	p := NewPlan(hostBW)
	p.Flows = make([]FlowSpec, 0, len(t.Flows))
	for _, f := range t.Flows {
		fs := FlowSpec{
			Src:   HostRef{Leaf: f.SrcLeaf, Host: f.SrcHost},
			Dst:   HostRef{Leaf: f.DstLeaf, Host: f.DstHost},
			Size:  f.Bytes,
			Start: f.Start,
		}
		if f.Transport == workload.TransportTCP {
			fs.Transport = TransportTCP
		}
		p.Flows = append(p.Flows, fs)
	}
	return p
}
