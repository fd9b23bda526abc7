package hybrid

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// TestDifferentialPerFlowFCT drives a 16-host leaf-spine permutation matrix
// through both engines and checks the tentpole's accuracy contract: every
// flow's hybrid FCT within 1% of the packet-level engine. The load is
// uncongested (each uplink carries at most three 25G flows), so the hybrid
// run keeps all flows analytic; the residual error is the packet engine's
// real store-and-forward interleaving jitter at shared fabric ports, which
// the closed form deliberately ignores below the demotion threshold.
func TestDifferentialPerFlowFCT(t *testing.T) {
	const (
		nHosts = 16
		size   = int64(1 * simtime.MB)
	)
	stagger := 5 * simtime.Microsecond

	// Packet-level reference run.
	pktFCT := make([]simtime.Duration, nHosts)
	{
		net := netsim.New(1)
		fab := topo.LeafSpine(net, 4, 4, 4, topo.DefaultConfig())
		params := dcqcn.DefaultParams(fab.Hosts[0].Port.Bandwidth)
		for i := 0; i < nHosts; i++ {
			i := i
			src, dst := fab.Hosts[i], fab.Hosts[(i+5)%nHosts]
			net.Q.CallAt(simtime.Time(simtime.Duration(i)*stagger), func(any) {
				dcqcn.Start(net, src, dst, size, params, func(f *dcqcn.Flow) {
					pktFCT[i] = f.End.Sub(f.Start)
				})
			}, nil)
		}
		net.RunUntil(simtime.Time(100 * simtime.Millisecond))
	}

	// Hybrid run: identical schedule, ids pre-drawn in the same order.
	hybFCT := make([]simtime.Duration, nHosts)
	var eng *Engine
	{
		net := netsim.New(1)
		fab := topo.LeafSpine(net, 4, 4, 4, topo.DefaultConfig())
		eng = New(DefaultConfig(), net.Q, net.Tracer)
		m := ForFabric(eng, fab)
		for i := 0; i < nHosts; i++ {
			i := i
			src, dst := fab.Hosts[i], fab.Hosts[(i+5)%nHosts]
			net.Q.CallAt(simtime.Time(simtime.Duration(i)*stagger), func(any) {
				id := net.NextFlowID()
				eng.StartFlow(m.Path(id, src, dst),
					FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
					func(f *Flow, remaining int64) {
						t.Errorf("flow %d demoted with %d bytes left; matrix should stay analytic", i, remaining)
					},
					func(f *Flow, end simtime.Time) {
						hybFCT[i] = end.Sub(f.Start)
					})
			}, nil)
		}
		eng.StartTicker()
		net.RunUntil(simtime.Time(100 * simtime.Millisecond))
	}

	if eng.Stats.AnalyticFlows != nHosts {
		t.Fatalf("only %d/%d flows completed analytically (%+v)", eng.Stats.AnalyticFlows, nHosts, eng.Stats)
	}
	for i := 0; i < nHosts; i++ {
		if pktFCT[i] == 0 || hybFCT[i] == 0 {
			t.Fatalf("flow %d incomplete: packet %v hybrid %v", i, pktFCT[i], hybFCT[i])
		}
		err := float64(hybFCT[i]-pktFCT[i]) / float64(pktFCT[i])
		if err < 0 {
			err = -err
		}
		if err > 0.01 {
			t.Errorf("flow %d: hybrid FCT %v vs packet %v (%.3f%% > 1%%)",
				i, hybFCT[i], pktFCT[i], err*100)
		}
	}
}

// TestDifferentialConservationUnderChurn runs an oversubscribed wave on a
// star and checks fabric-wide byte conservation across every mode switch:
// each receiver gets exactly its flows' payload, and per-port delivered
// wire bytes (packet + analytic credit) account for every committed frame.
func TestDifferentialConservationUnderChurn(t *testing.T) {
	const senders = 4
	size := int64(2 * simtime.MB)
	net := netsim.New(7)
	fab := topo.Star(net, senders+1, topo.DefaultConfig())
	recv := fab.Hosts[senders]
	eng := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(eng, fab)
	params := dcqcn.DefaultParams(fab.Hosts[0].Port.Bandwidth)

	done := 0
	var analyticWire uint64
	for i := 0; i < senders; i++ {
		src := fab.Hosts[i]
		// Staggered so the first flow fast-forwards alone before the wave
		// oversubscribes the receiver downlink and demotes everything.
		at := simtime.Time(simtime.Duration(i) * 50 * simtime.Microsecond)
		net.Q.CallAt(at, func(any) {
			id := net.NextFlowID()
			eng.StartFlow(m.Path(id, src, recv),
				FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
				func(f *Flow, remaining int64) {
					if f.AnalyticPayload()+remaining != size {
						t.Errorf("split not conserved: %d + %d != %d", f.AnalyticPayload(), remaining, size)
					}
					analyticWire += uint64(f.wireOf(f.frames))
					dcqcn.StartSender(net, netsim.FlowID(f.ID), src, recv.ID(), remaining, params)
					dcqcn.StartReceiver(netsim.FlowID(f.ID), src.ID(), recv, remaining, params, func(*dcqcn.Receiver) {
						eng.PacketDone(f)
						done++
					})
				},
				func(*Flow, simtime.Time) { done++ })
		}, nil)
	}
	eng.StartTicker()
	net.RunUntil(simtime.Time(simtime.Second))

	if done != senders {
		t.Fatalf("%d/%d flows completed", done, senders)
	}
	if eng.Stats.Demotions == 0 {
		t.Fatal("wave never demoted the shared downlink; churn test proves nothing")
	}
	// The receiver downlink carried every flow: its packet bytes plus
	// analytic credit must equal the total wire bytes of all four flows.
	down := fab.Leaves[0].Ports[senders]
	if got := down.AnalyticTxBytes; got != analyticWire {
		t.Fatalf("downlink analytic credit %d != committed wire %d", got, analyticWire)
	}
	frames := (size + netsim.DefaultMTU - 1) / netsim.DefaultMTU
	perFlowWire := uint64(size + frames*netsim.DataHeaderBytes)
	if got, want := down.TxBytesTotal+down.AnalyticTxBytes, senders*perFlowWire; got != uint64(want) {
		t.Fatalf("downlink delivered %d wire bytes, want %d", got, want)
	}
}
