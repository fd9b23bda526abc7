package hybrid

import (
	"testing"

	"github.com/accnet/acc/internal/dcqcn"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

// noDemote is a startPacket spy for flows that must stay analytic.
func noDemote(t *testing.T) func(*Flow, int64) {
	return func(f *Flow, remaining int64) {
		t.Fatalf("flow %d unexpectedly demoted with %d bytes remaining", f.ID, remaining)
	}
}

// TestSoloFlowEndMatchesPacketFCT is the core exactness claim: a solo
// uncongested DCQCN flow fast-forwarded in closed form completes at the
// same instant, to the nanosecond, as the full packet-level simulation.
func TestSoloFlowEndMatchesPacketFCT(t *testing.T) {
	for _, size := range []int64{999, 1000, 1001, 64 * simtime.KB, 1 * simtime.MB} {
		// Packet-level reference.
		pnet := netsim.New(1)
		pfab := topo.Star(pnet, 2, topo.DefaultConfig())
		var ref *dcqcn.Flow
		dcqcn.Start(pnet, pfab.Hosts[0], pfab.Hosts[1], size,
			dcqcn.DefaultParams(pfab.Hosts[0].Port.Bandwidth), func(f *dcqcn.Flow) { ref = f })
		pnet.RunUntil(simtime.Time(simtime.Second))
		if ref == nil {
			t.Fatalf("size %d: packet flow did not complete", size)
		}

		// Hybrid closed form over an identical fabric.
		hnet := netsim.New(1)
		hfab := topo.Star(hnet, 2, topo.DefaultConfig())
		e := New(DefaultConfig(), hnet.Q, hnet.Tracer)
		m := ForFabric(e, hfab)
		id := hnet.NextFlowID()
		var end simtime.Time
		f := e.StartFlow(m.Path(id, hfab.Hosts[0], hfab.Hosts[1]),
			FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
			noDemote(t),
			func(_ *Flow, at simtime.Time) { end = at })
		e.StartTicker()
		hnet.RunUntil(simtime.Time(10 * simtime.Millisecond))

		if end == 0 {
			t.Fatalf("size %d: analytic flow did not complete", size)
		}
		if end != ref.End {
			t.Fatalf("size %d: analytic end %v != packet end %v (delta %v)",
				size, end, ref.End, end.Sub(ref.End))
		}
		if got := f.AnalyticPayload(); got != size {
			t.Fatalf("size %d: analytic payload %d != size", size, got)
		}
		if e.Stats.AnalyticFlows != 1 || e.Stats.PacketFlows != 0 {
			t.Fatalf("size %d: stats %+v", size, e.Stats)
		}
	}
}

// TestSoloFlowConservesPortBytes checks the per-port wire accounting: every
// crossed port is credited exactly the flow's wire bytes, and the delivered
// total (TxBytesTotal + AnalyticTxBytes) matches what the packet engine would
// have serialized.
func TestSoloFlowConservesPortBytes(t *testing.T) {
	size := int64(1 * simtime.MB)
	net := netsim.New(1)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)
	id := net.NextFlowID()
	f := e.StartFlow(m.Path(id, fab.Hosts[0], fab.Hosts[1]),
		FlowOpts{ID: uint64(id), Size: size, Prio: 3, Eligible: true},
		noDemote(t), nil)
	e.StartTicker()
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))

	wire := f.wireOf(f.nFrames)
	for _, p := range []*netsim.Port{fab.Hosts[0].Port, fab.Leaves[0].Ports[1]} {
		if p.TxBytesTotal != 0 {
			t.Fatalf("port serialized %d packet bytes in a pure analytic run", p.TxBytesTotal)
		}
		if got := p.TxBytesTotal + p.AnalyticTxBytes; got != uint64(wire) {
			t.Fatalf("port delivered %d wire bytes, want %d", got, wire)
		}
	}
	if fab.Hosts[1].Port.TxBytesTotal+fab.Hosts[1].Port.AnalyticTxBytes != 0 {
		t.Fatal("receiver NIC egress credited bytes it never carried")
	}
}

// TestSharedBottleneckDemotesBoth: two full-demand flows into one receiver
// oversubscribe its downlink; admission of the second must demote the link
// and convert both flows with an exactly conserved byte split.
func TestSharedBottleneckDemotesBoth(t *testing.T) {
	size := int64(4 * simtime.MB)
	net := netsim.New(1)
	fab := topo.Star(net, 3, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)

	handed := make(map[uint64]int64)
	spy := func(f *Flow, remaining int64) { handed[f.ID] = remaining }

	id1 := net.NextFlowID()
	f1 := e.StartFlow(m.Path(id1, fab.Hosts[0], fab.Hosts[2]),
		FlowOpts{ID: uint64(id1), Size: size, Prio: 3, Eligible: true}, spy, nil)
	net.Q.CallAt(simtime.Time(100*simtime.Microsecond), func(any) {
		id2 := net.NextFlowID()
		e.StartFlow(m.Path(id2, fab.Hosts[1], fab.Hosts[2]),
			FlowOpts{ID: uint64(id2), Size: size, Prio: 3, Eligible: true}, spy, nil)
	}, nil)
	e.StartTicker()
	net.RunUntil(simtime.Time(200 * simtime.Microsecond))

	if len(handed) != 2 {
		t.Fatalf("expected both flows demoted, got %d", len(handed))
	}
	if handed[f1.ID]+f1.AnalyticPayload() != size {
		t.Fatalf("conservation broken: analytic %d + packet %d != %d",
			f1.AnalyticPayload(), handed[f1.ID], size)
	}
	if f1.AnalyticPayload() == 0 {
		t.Fatal("first flow should have fast-forwarded some bytes before the demotion")
	}
	// The first flow's committed wire bytes must sit on its ports.
	if got := fab.Hosts[0].Port.AnalyticTxBytes; got != uint64(f1.wireOf(f1.frames)) {
		t.Fatalf("NIC analytic credit %d != committed wire %d", got, f1.wireOf(f1.frames))
	}
	if e.Stats.Demotions == 0 || e.Stats.PacketFlows != 2 {
		t.Fatalf("stats %+v", e.Stats)
	}
	if len(e.flows) != 0 {
		t.Fatalf("%d flows still analytic past a shared bottleneck", len(e.flows))
	}
}

// TestIneligibleFlowReservesDemand: a transport the fluid model cannot
// represent starts at packet level immediately, but its demand is reserved
// so analytic peers see the load; PacketDone releases it.
func TestIneligibleFlowReservesDemand(t *testing.T) {
	net := netsim.New(1)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)

	var gotRemaining int64 = -1
	id := net.NextFlowID()
	path := m.Path(id, fab.Hosts[0], fab.Hosts[1])
	f := e.StartFlow(path, FlowOpts{ID: uint64(id), Size: 1 * simtime.MB, Prio: 0},
		func(_ *Flow, rem int64) { gotRemaining = rem }, nil)

	if gotRemaining != 1*simtime.MB {
		t.Fatalf("ineligible flow handed %d bytes to packet level, want full size", gotRemaining)
	}
	if path[0].reserved != f.Demand || path[0].nPacket != 1 {
		t.Fatalf("reservation not applied: reserved=%v nPacket=%d", path[0].reserved, path[0].nPacket)
	}
	e.PacketDone(f)
	if path[0].reserved != 0 || path[0].nPacket != 0 {
		t.Fatalf("reservation not released: reserved=%v nPacket=%d", path[0].reserved, path[0].nPacket)
	}
}

// TestPauseTriggerAndPromotionHysteresis: an observed PFC pause demotes the
// link; after PromoteAfter quiet windows it earns its way back.
func TestPauseTriggerAndPromotionHysteresis(t *testing.T) {
	net := netsim.New(1)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)

	l := m.up[0]
	l.Port.PauseRxEvents++ // simulated PFC pause observed since last window
	e.Tick(simtime.Time(simtime.Microsecond))
	if !l.hot || e.Stats.Demotions != 1 {
		t.Fatalf("pause did not demote: hot=%v stats=%+v", l.hot, e.Stats)
	}
	if l.Port.Fidelity != netsim.FidelityPacket {
		t.Fatal("port fidelity not marked packet after demotion")
	}
	for i := 0; i < e.Cfg.PromoteAfter; i++ {
		if !l.hot {
			t.Fatalf("promoted after only %d quiet windows", i)
		}
		e.Tick(simtime.Time(simtime.Duration(i+2) * simtime.Microsecond))
	}
	if l.hot || e.Stats.Promotions != 1 {
		t.Fatalf("hysteresis failed: hot=%v stats=%+v", l.hot, e.Stats)
	}
	if l.Port.Fidelity != netsim.FidelityAnalytic {
		t.Fatal("port fidelity not restored after promotion")
	}
}

// TestEcmpGroupFaultDemotesGroup: an uplink fault re-hashes every flow of
// the ECMP group in the packet engine, so the hybrid engine must demote the
// whole group — including flows whose own uplink stayed up.
func TestEcmpGroupFaultDemotesGroup(t *testing.T) {
	net := netsim.New(1)
	fab := topo.LeafSpine(net, 2, 2, 2, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)

	var handed int64 = -1
	id := net.NextFlowID()
	src, dst := fab.HostsAt[0][0], fab.HostsAt[1][0]
	path := m.Path(id, src, dst)
	f := e.StartFlow(path, FlowOpts{ID: uint64(id), Size: 64 * simtime.MB, Prio: 3, Eligible: true},
		func(_ *Flow, rem int64) { handed = rem }, nil)
	if f.Mode != ModeAnalytic {
		t.Fatal("uncongested cross-leaf flow should start analytic")
	}

	// Fail the leaf-0 uplink the flow does NOT cross.
	other := 0
	if m.uplinks[0][0] == path[1] {
		other = 1
	}
	m.uplinks[0][other].Port.SetDown(true)
	e.Tick(simtime.Time(simtime.Microsecond))

	if handed < 0 {
		t.Fatal("flow not demoted by the sibling uplink fault")
	}
	if f.AnalyticPayload()+handed != 64*simtime.MB {
		t.Fatalf("conservation broken across fault demotion: %d + %d", f.AnalyticPayload(), handed)
	}
	for _, ul := range m.uplinks[0] {
		if !ul.hot {
			t.Fatal("entire ECMP group should be demoted on a member fault")
		}
	}
}

// TestMeshPathAvoidsDownUplink: path resolution must mirror ecmpPick's
// alive-set filtering, hashing over the surviving uplinks only.
func TestMeshPathAvoidsDownUplink(t *testing.T) {
	net := netsim.New(1)
	fab := topo.LeafSpine(net, 2, 2, 3, topo.DefaultConfig())
	e := New(DefaultConfig(), net.Q, net.Tracer)
	m := ForFabric(e, fab)
	src, dst := fab.HostsAt[0][0], fab.HostsAt[1][0]

	// Find a flow id hashed onto spine 1, then fail that uplink.
	var id netsim.FlowID
	for {
		id = net.NextFlowID()
		if netsim.EcmpIndex(id, fab.Leaves[0].ID(), 3) == 1 {
			break
		}
	}
	fab.Uplinks[0][1].SetDown(true)
	p := m.Path(id, src, dst)
	if p[1] == m.uplinks[0][1] {
		t.Fatal("path crossed a down uplink")
	}
	// The rerouted choice must hash over the 2-member alive set {0, 2}.
	want := []int{0, 2}[netsim.EcmpIndex(id, fab.Leaves[0].ID(), 2)]
	if p[1] != m.uplinks[0][want] {
		t.Fatalf("reroute picked the wrong alive uplink")
	}
	if p[2] != m.downlinks[want][1] {
		t.Fatal("downlink does not match the rerouted spine")
	}
}

// TestBarrierModeCompletion: a barrier-driven engine (psim) detects
// completion at the first tick past End but records the exact closed-form
// End, not the tick time.
func TestBarrierModeCompletion(t *testing.T) {
	net := netsim.New(1)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	now := simtime.Time(0)
	e := NewBarrier(DefaultConfig(), func() simtime.Time { return now }, net.Tracer)
	m := ForFabric(e, fab)

	id := net.NextFlowID()
	var end simtime.Time
	f := e.StartFlow(m.Path(id, fab.Hosts[0], fab.Hosts[1]),
		FlowOpts{ID: uint64(id), Size: 256 * simtime.KB, Prio: 3, Eligible: true},
		noDemote(t),
		func(_ *Flow, at simtime.Time) { end = at })

	for end == 0 {
		now = now.Add(e.Cfg.Window)
		e.Tick(now)
		if now > simtime.Time(simtime.Second) {
			t.Fatal("barrier-mode flow never completed")
		}
	}
	if end != f.End {
		t.Fatalf("completion reported %v, want exact closed-form end %v", end, f.End)
	}
	if end > now || end <= now-simtime.Time(e.Cfg.Window) {
		t.Fatalf("end %v outside the completing window ending %v", end, now)
	}
	if f.AnalyticPayload() != 256*simtime.KB {
		t.Fatalf("payload %d not fully committed", f.AnalyticPayload())
	}
}

// TestWindowCommitIsMonotonic: mid-flight windows commit whole frames only,
// and the running credit never exceeds what the pacing schedule allows.
func TestWindowCommitIsMonotonic(t *testing.T) {
	net := netsim.New(1)
	fab := topo.Star(net, 2, topo.DefaultConfig())
	now := simtime.Time(0)
	e := NewBarrier(DefaultConfig(), func() simtime.Time { return now }, net.Tracer)
	m := ForFabric(e, fab)
	id := net.NextFlowID()
	f := e.StartFlow(m.Path(id, fab.Hosts[0], fab.Hosts[1]),
		FlowOpts{ID: uint64(id), Size: 2 * simtime.MB, Prio: 3, Eligible: true},
		noDemote(t), nil)

	prev := int64(0)
	mtu := int64(e.Cfg.MTU)
	for i := 0; i < 20; i++ {
		now = now.Add(e.Cfg.Window)
		e.Tick(now)
		got := f.AnalyticPayload()
		if got < prev {
			t.Fatalf("commit went backwards: %d -> %d", prev, got)
		}
		if got%mtu != 0 && got != 2*simtime.MB {
			t.Fatalf("partial frame committed: %d", got)
		}
		// Frames paced by now: no more than elapsed/gap full frames.
		maxFrames := int64(now.Sub(f.Start) / f.gap)
		if got > maxFrames*mtu {
			t.Fatalf("committed %d bytes ahead of the pacing schedule (max %d frames)", got, maxFrames)
		}
		prev = got
	}
	if prev == 0 {
		t.Fatal("nothing committed after 20 windows")
	}
}
