package netsim

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

func TestPauseHooksFire(t *testing.T) {
	net := New(41)
	cfg := DefaultSwitchConfig("sw")
	cfg.BufferBytes = 60 * 1048
	cfg.DefaultRED.Kmin = 1 << 30 // no marking: force PFC
	cfg.DefaultRED.Kmax = 1 << 30
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	sw := NewSwitch(net, cfg)
	p1 := h1.AttachPort(100*simtime.Gbps, 100, nil)
	p2 := h2.AttachPort(1*simtime.Gbps, 100, nil)
	s1 := sw.AddPort(100*simtime.Gbps, 100, nil)
	s2 := sw.AddPort(1*simtime.Gbps, 100, nil)
	Connect(p1, s1)
	Connect(p2, s2)
	sw.Routes[h1.ID()] = []*Port{s1}
	sw.Routes[h2.ID()] = []*Port{s2}
	h2.Register(1, EndpointFunc(func(*Packet) {}))

	var events []bool
	h1.PauseHooks = append(h1.PauseHooks, func(prio int, paused bool) {
		events = append(events, paused)
	})
	for i := 0; i < 400; i++ {
		h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1048, ECT: true})
	}
	net.Run()
	if len(events) < 2 {
		t.Fatalf("pause hooks fired %d times, want pause+resume at least", len(events))
	}
	if !events[0] {
		t.Fatal("first hook event should be a pause")
	}
	if events[len(events)-1] {
		t.Fatal("last hook event should be a resume")
	}
}

func TestNextFlowIDMonotonic(t *testing.T) {
	net := New(42)
	prev := net.NextFlowID()
	for i := 0; i < 100; i++ {
		id := net.NextFlowID()
		if id <= prev {
			t.Fatalf("flow id %d not greater than %d", id, prev)
		}
		prev = id
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	net := New(43)
	net.RunFor(5 * simtime.Millisecond)
	if net.Now() != simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("clock %v after RunFor(5ms)", net.Now())
	}
	net.RunFor(3 * simtime.Millisecond)
	if net.Now() != simtime.Time(8*simtime.Millisecond) {
		t.Fatalf("clock %v after second RunFor", net.Now())
	}
}

func TestNodeRegistry(t *testing.T) {
	net := New(44)
	h := NewHost(net, "a")
	sw := NewSwitch(net, DefaultSwitchConfig("b"))
	if net.Nodes()[h.ID()] != Node(h) || net.Nodes()[sw.ID()] != Node(sw) {
		t.Fatal("node registry lookup broken")
	}
	if len(net.Nodes()) != 2 {
		t.Fatalf("%d nodes registered", len(net.Nodes()))
	}
	if h.Name() != "a" || sw.Name() != "b" {
		t.Fatal("names wrong")
	}
	if h.Net() != net {
		t.Fatal("host Net() accessor wrong")
	}
}

func TestUnregisterStopsDispatch(t *testing.T) {
	net := New(45)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	p1 := h1.AttachPort(simtime.Gbps, 0, nil)
	p2 := h2.AttachPort(simtime.Gbps, 0, nil)
	Connect(p1, p2)
	got := 0
	h2.Register(9, EndpointFunc(func(*Packet) { got++ }))
	h1.Send(&Packet{Kind: KindData, Flow: 9, Src: h1.ID(), Dst: h2.ID(), Size: 100})
	net.Run()
	h2.Unregister(9)
	h1.Send(&Packet{Kind: KindData, Flow: 9, Src: h1.ID(), Dst: h2.ID(), Size: 100})
	net.Run()
	if got != 1 {
		t.Fatalf("endpoint saw %d packets, want 1 (second arrived after unregister)", got)
	}
}

func TestSwitchConfigAccessors(t *testing.T) {
	net := New(46)
	cfg := DefaultSwitchConfig("x")
	cfg.ECNPrio = []int{3}
	sw := NewSwitch(net, cfg)
	p := sw.AddPort(simtime.Gbps, 0, []int{1, 0, 0, 1})
	if sw.cfg.Name != "x" {
		t.Fatal("config accessor wrong")
	}
	// Only prio 3 should be ECN-enabled.
	if p.Queue(0).ECNEnabled {
		t.Fatal("prio 0 should not be ECN-enabled")
	}
	if !p.Queue(3).ECNEnabled {
		t.Fatal("prio 3 should be ECN-enabled")
	}
}
