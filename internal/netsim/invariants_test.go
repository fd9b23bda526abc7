package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// TestBufferAccountingDrainsToZero: after any burst pattern fully drains,
// the switch's shared-buffer accounting must return exactly to zero —
// leaks here would eventually wedge PFC.
func TestBufferAccountingDrainsToZero(t *testing.T) {
	f := func(seed int64, burstsRaw []uint8) bool {
		net := New(seed)
		h1 := NewHost(net, "h1")
		h2 := NewHost(net, "h2")
		sw := NewSwitch(net, DefaultSwitchConfig("sw"))
		p1 := h1.AttachPort(25*simtime.Gbps, 100, nil)
		p2 := h2.AttachPort(5*simtime.Gbps, 100, nil)
		s1 := sw.AddPort(25*simtime.Gbps, 100, nil)
		s2 := sw.AddPort(5*simtime.Gbps, 100, nil)
		Connect(p1, s1)
		Connect(p2, s2)
		sw.Routes[h1.ID()] = []*Port{s1}
		sw.Routes[h2.ID()] = []*Port{s2}
		h2.Register(1, EndpointFunc(func(p *Packet) {}))
		rng := rand.New(rand.NewSource(seed))
		for _, b := range burstsRaw {
			n := int(b%32) + 1
			for i := 0; i < n; i++ {
				size := 64 + rng.Intn(1400)
				pkt := &Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: size, ECT: rng.Intn(2) == 0}
				h1.Send(pkt)
			}
		}
		net.Run()
		return sw.totalUsed == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPFCAlwaysResumes: every pause must eventually be matched by a resume
// once traffic stops (no stuck pause).
func TestPFCAlwaysResumes(t *testing.T) {
	net := New(77)
	cfg := DefaultSwitchConfig("sw")
	cfg.BufferBytes = 64 * 1048
	cfg.DefaultRED = red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1}
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
	h2.Register(1, EndpointFunc(func(p *Packet) {}))
	for i := 0; i < 300; i++ {
		h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1048, ECT: true})
	}
	net.Run()
	if h1.Port.PauseRxEvents == 0 {
		t.Fatal("scenario did not exercise PFC")
	}
	for prio := 0; prio < NumPrio; prio++ {
		if h1.Port.Paused(prio) {
			t.Fatalf("priority %d still paused after drain", prio)
		}
	}
}

// TestConservationOfBytes: bytes delivered + bytes dropped == bytes sent.
func TestConservationOfBytes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		net := New(seed)
		cfg := DefaultSwitchConfig("tiny")
		cfg.BufferBytes = 8 * 1048
		cfg.PFC.Enabled = false
		cfg.DefaultRED = red.Config{Kmin: 1 << 30, Kmax: 1 << 30, Pmax: 1}
		h1 := NewHost(net, "h1")
		h2 := NewHost(net, "h2")
		sw := NewSwitch(net, cfg)
		p1 := h1.AttachPort(100*simtime.Gbps, 0, nil)
		p2 := h2.AttachPort(1*simtime.Gbps, 0, nil)
		s1 := sw.AddPort(100*simtime.Gbps, 0, nil)
		s2 := sw.AddPort(1*simtime.Gbps, 0, nil)
		Connect(p1, s1)
		Connect(p2, s2)
		sw.Routes[h1.ID()] = []*Port{s1}
		sw.Routes[h2.ID()] = []*Port{s2}
		var delivered int
		h2.Register(1, EndpointFunc(func(p *Packet) { delivered++ }))
		total := int(n) + 1
		for i := 0; i < total; i++ {
			h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1048, ECT: true})
		}
		net.Run()
		return delivered+int(sw.DropsTotal) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDWRRConservesWork: with a single active queue, DWRR must deliver full
// line rate regardless of the other queues' weights.
func TestDWRRConservesWork(t *testing.T) {
	net := New(5)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	weights := make([]int, NumPrio)
	weights[0], weights[3] = 1, 9
	bw := 10 * simtime.Gbps
	p1 := h1.AttachPort(bw, 0, weights)
	p2 := h2.AttachPort(bw, 0, weights)
	Connect(p1, p2)
	h2.Register(1, EndpointFunc(func(p *Packet) {}))
	// Only the weight-1 queue has traffic.
	const total = 1000
	for i := 0; i < total; i++ {
		h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1048, Prio: 0})
	}
	start := net.Now()
	net.Run()
	elapsed := net.Now().Sub(start)
	ideal := simtime.TxTime(total*1048, bw)
	if float64(elapsed) > 1.02*float64(ideal) {
		t.Fatalf("lone queue took %v, ideal %v: DWRR not work-conserving", elapsed, ideal)
	}
}

// TestFIFOInjectionFairness: many blocked senders on one NIC queue must all
// make progress (regression test for the pacer-starvation bug).
func TestFIFOInjectionFairness(t *testing.T) {
	net := New(6)
	h1 := NewHost(net, "h1")
	h2 := NewHost(net, "h2")
	bw := simtime.Rate(1e9)
	p1 := h1.AttachPort(bw, 0, nil)
	p2 := h2.AttachPort(bw, 0, nil)
	p1.Queues[0].InjectLimit = 4 * 1048
	Connect(p1, p2)
	h2.Register(1, EndpointFunc(func(p *Packet) {}))

	const senders = 16
	counts := make([]int, senders)
	for s := 0; s < senders; s++ {
		s := s
		var pump func()
		pump = func() {
			if !p1.CanInject(0) {
				p1.WhenReady(0, WaiterFunc(pump))
				return
			}
			h1.Send(&Packet{Kind: KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(), Size: 1048})
			counts[s]++
			net.Q.After(simtime.Microsecond, pump)
		}
		pump()
	}
	net.RunUntil(simtime.Time(10 * simtime.Millisecond))
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatalf("a sender was starved entirely: %v", counts)
	}
	if float64(max) > 2.0*float64(min) {
		t.Fatalf("unfair injection service: min=%d max=%d", min, max)
	}
}
