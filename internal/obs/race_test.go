package obs_test

import (
	"io"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// driveNetwork builds a tiny two-host/one-switch network wired to the
// shared tracer and runs a congested workload through it, emitting mark,
// drop, and wred_update records. Each goroutine owns its Network; only the
// Tracer is shared, mirroring how the parallel experiment runner fans out.
func driveNetwork(tr *obs.Tracer, seed int64, packets int) {
	net := netsim.New(seed)
	net.Tracer = tr
	h1 := netsim.NewHostAt(net, "h1", len(net.Nodes()))
	h2 := netsim.NewHostAt(net, "h2", len(net.Nodes()))
	sw := netsim.NewSwitchAt(net, netsim.DefaultSwitchConfig("sw"), len(net.Nodes()))
	bw := 25 * simtime.Gbps
	d := simtime.Duration(600)
	p1 := h1.AttachPort(bw, d, nil)
	p2 := h2.AttachPort(bw, d, nil)
	s1 := sw.AddPort(bw, d, nil)
	s2 := sw.AddPort(bw, d, nil)
	netsim.Connect(p1, s1)
	netsim.Connect(p2, s2)
	sw.Routes[h1.ID()] = []*netsim.Port{s1}
	sw.Routes[h2.ID()] = []*netsim.Port{s2}
	sw.SetRED(red.Config{Kmin: 0, Kmax: 0, Pmax: 1}) // mark ECT, drop the rest
	h2.Register(1, netsim.EndpointFunc(func(*netsim.Packet) {}))
	for i := 0; i < packets; i++ {
		p := &netsim.Packet{
			Kind: netsim.KindData, Flow: 1, Src: h1.ID(), Dst: h2.ID(),
			Size: 1048, ECT: i%2 == 0, // alternate marks and WRED drops
		}
		h1.Send(p)
	}
	for net.Q.Step() {
	}
}

// TestTracerSharedRingRace hammers one Tracer ring from several
// concurrently running Networks while reader goroutines snapshot, tail,
// and export it. Run under -race (CI does) this proves the ring's locking
// covers every public surface the live introspection server touches.
func TestTracerSharedRingRace(t *testing.T) {
	const (
		writers    = 8
		readers    = 4
		packetsPer = 200
	)
	tr := obs.NewTracer(128) // small ring so writers constantly wrap it

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tr.Snapshot()
				_ = tr.Last(16)
				_ = tr.Len()
				_ = tr.Emitted()
				_ = tr.WriteJSONL(io.Discard, 32)
				_ = obs.WritePrometheus(io.Discard, tr, nil)
			}
		}()
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			driveNetwork(tr, seed, packetsPer)
		}(int64(w + 1))
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	// Every network saw every packet hit the zero-threshold WRED gate, so
	// the shared ring must have absorbed all of them.
	snap := tr.Snapshot()
	marks, drops := snap.ByKind["ecn_mark"], snap.ByKind["drop"]
	const want = writers * packetsPer / 2
	if marks != want || drops != want {
		t.Fatalf("shared ring counted marks=%d drops=%d, want %d each (lost events imply a race)", marks, drops, want)
	}
	if got := tr.Emitted(); got < want*2 {
		t.Fatalf("Emitted() = %d, want >= %d", got, want*2)
	}
}
