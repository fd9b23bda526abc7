package netsim

import (
	"testing"

	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// reasonCounts runs one drop scenario and returns the tracer's per-reason
// totals plus the switch under test.
func tracerReasons(tr *obs.Tracer) map[string]uint64 { return tr.Snapshot().Drops }

// TestDropReasonSplitWRED pins that a WRED drop of non-ECT traffic is
// traced with reason "wred" and counted in Switch.WREDDrops, partitioning
// DropsTotal.
func TestDropReasonSplitWRED(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	net.Tracer = obs.NewTracer(64)
	sw.SetRED(red.Config{Kmin: 0, Kmax: 0, Pmax: 1}) // drop/mark everything
	p := dataPkt(h1, h2, 1, 1048)
	p.ECT = false // non-ECT: WRED drops instead of marking
	h1.Send(p)
	net.Run()

	if sw.WREDDrops != 1 || sw.OverflowDrops != 0 || sw.RouteBlackholes != 0 {
		t.Fatalf("per-reason counters = wred:%d overflow:%d route:%d, want 1/0/0",
			sw.WREDDrops, sw.OverflowDrops, sw.RouteBlackholes)
	}
	if sw.DropsTotal != sw.WREDDrops+sw.OverflowDrops+sw.RouteBlackholes {
		t.Fatalf("DropsTotal %d not partitioned by per-reason counters", sw.DropsTotal)
	}
	if got := tracerReasons(net.Tracer); got["wred"] != 1 || len(got) != 1 {
		t.Fatalf("trace drop reasons = %v, want {wred:1}", got)
	}
	// SetRED on an instrumented network also leaves a template-update trail.
	if n := net.Tracer.Snapshot().ByKind["wred_update"]; n == 0 {
		t.Fatal("SetRED emitted no wred_update records")
	}
}

// TestDropReasonSplitOverflow congests a slow egress behind a tiny shared
// buffer (PFC off) and pins the "overflow" reason.
func TestDropReasonSplitOverflow(t *testing.T) {
	net := New(1)
	net.Tracer = obs.NewTracer(64)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	cfg := DefaultSwitchConfig("sw")
	cfg.BufferBytes = 3000
	cfg.PFC.Enabled = false // let the buffer overflow instead of pausing
	sw := NewSwitch(net, cfg)
	p1 := h1.AttachPort(25*simtime.Gbps, 600, nil)
	p2 := h2.AttachPort(simtime.Gbps, 600, nil)
	s1 := sw.AddPort(25*simtime.Gbps, 600, nil)
	s2 := sw.AddPort(simtime.Gbps, 600, nil) // 25:1 slowdown piles packets up
	Connect(p1, s1)
	Connect(p2, s2)
	sw.Routes[h1.ID()] = []*Port{s1}
	sw.Routes[h2.ID()] = []*Port{s2}
	h2.Register(1, EndpointFunc(func(*Packet) {}))
	for i := 0; i < 5; i++ {
		h1.Send(dataPkt(h1, h2, 1, 1048))
	}
	net.Run()

	if sw.OverflowDrops == 0 {
		t.Fatal("no overflow drops despite 5x1048B into a 3000B buffer")
	}
	if sw.WREDDrops != 0 || sw.RouteBlackholes != 0 {
		t.Fatalf("unexpected non-overflow drops: wred:%d route:%d", sw.WREDDrops, sw.RouteBlackholes)
	}
	if sw.DropsTotal != sw.OverflowDrops {
		t.Fatalf("DropsTotal %d != OverflowDrops %d", sw.DropsTotal, sw.OverflowDrops)
	}
	if got := tracerReasons(net.Tracer); got["overflow"] != sw.OverflowDrops || len(got) != 1 {
		t.Fatalf("trace drop reasons = %v, want {overflow:%d}", got, sw.OverflowDrops)
	}
}

// TestDropReasonSplitRouteBlackhole downs the only route and pins the
// "route_blackhole" reason plus the link_state trace record from SetDown.
func TestDropReasonSplitRouteBlackhole(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	net.Tracer = obs.NewTracer(64)
	sw.Ports[1].SetDown(true) // only route to h2
	h1.Send(dataPkt(h1, h2, 1, 700))
	net.Run()

	if sw.RouteBlackholes != 1 || sw.DropsTotal != 1 {
		t.Fatalf("route blackholes %d / drops %d, want 1/1", sw.RouteBlackholes, sw.DropsTotal)
	}
	if got := tracerReasons(net.Tracer); got["route_blackhole"] != 1 || len(got) != 1 {
		t.Fatalf("trace drop reasons = %v, want {route_blackhole:1}", got)
	}
	snap := net.Tracer.Snapshot()
	if snap.ByKind["link_state"] != 1 {
		t.Fatalf("link_state records = %d, want 1 from SetDown", snap.ByKind["link_state"])
	}
}

// TestDropReasonSplitLinkBlackhole kills a link mid-propagation and pins
// the "link_blackhole" reason — distinct from every switch-side reason, and
// counted at the transmitting Port rather than in Switch.DropsTotal.
func TestDropReasonSplitLinkBlackhole(t *testing.T) {
	net, h1, h2, sw := rig(t, nil)
	net.Tracer = obs.NewTracer(64)
	h2.Register(1, EndpointFunc(func(*Packet) {}))
	h1.Send(dataPkt(h1, h2, 1, 1048))
	ser := simtime.TxTime(1048, 25*simtime.Gbps)
	net.RunUntil(simtime.Time(ser + 100)) // mid-propagation on the first hop
	h1.Port.SetDown(true)
	net.Run()

	if h1.Port.BlackholedPackets != 1 {
		t.Fatalf("BlackholedPackets = %d, want 1", h1.Port.BlackholedPackets)
	}
	if sw.DropsTotal != 0 {
		t.Fatalf("link blackhole leaked into Switch.DropsTotal (%d)", sw.DropsTotal)
	}
	if got := tracerReasons(net.Tracer); got["link_blackhole"] != 1 || len(got) != 1 {
		t.Fatalf("trace drop reasons = %v, want {link_blackhole:1}", got)
	}
}
