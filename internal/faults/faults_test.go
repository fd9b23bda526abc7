package faults

import (
	"reflect"
	"testing"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/topo"
)

func leafSpine(seed int64) (*netsim.Network, *topo.Fabric) {
	net := netsim.New(seed)
	fab := topo.LeafSpine(net, 2, 3, 2, topo.DefaultConfig())
	return net, fab
}

func TestLinksByRole(t *testing.T) {
	_, fab := leafSpine(1)
	ls := Links(fab)
	if got := len(ls.Of(HostLeaf)); got != 6 {
		t.Errorf("host-leaf links = %d, want 6", got)
	}
	if got := len(ls.Of(LeafSpine)); got != 4 {
		t.Errorf("leaf-spine links = %d, want 4", got)
	}
	// Every link must have both ends wired to each other.
	for r := Role(0); r < numRoles; r++ {
		for _, l := range ls.Of(r) {
			if l.A.Peer != l.B || l.B.Peer != l.A {
				t.Fatalf("%s link %s ends are not peers", r, l.Name())
			}
		}
	}
}

func TestLinksLeafSpineRoles(t *testing.T) {
	net := netsim.New(1)
	fab := topo.LeafSpine(net, 4, 4, 4, topo.DefaultConfig())
	ls := Links(fab)
	// 4 leaves x 4 hosts, every leaf meshed to 4 spines.
	if got := len(ls.Of(HostLeaf)); got != 16 {
		t.Errorf("host-leaf links = %d, want 16", got)
	}
	if got := len(ls.Of(LeafSpine)); got != 16 {
		t.Errorf("leaf-spine links = %d, want 16", got)
	}
	// A is the lower-tier end: every leaf-spine link runs leaf -> spine.
	leaves := map[netsim.Node]bool{}
	for _, l := range fab.Leaves {
		leaves[l] = true
	}
	for _, l := range ls.Of(LeafSpine) {
		if !leaves[l.A.Owner] || leaves[l.B.Owner] {
			t.Fatalf("leaf-spine link %s does not run leaf -> spine", l.Name())
		}
	}
}

func TestPlanSortedStable(t *testing.T) {
	var p Plan
	p.Events = []Event{
		{At: 30, Kind: LinkUp, Index: 2},
		{At: 10, Kind: LinkDown, Index: 0},
		{At: 30, Kind: LinkDown, Index: 1}, // same time as the LinkUp above
		{At: 20, Kind: Degrade, Index: 3, Factor: 0.5},
	}
	got := p.Sorted()
	wantIdx := []int{0, 3, 2, 1}
	for i, idx := range wantIdx {
		if got[i].Index != idx {
			t.Fatalf("sorted[%d].Index = %d, want %d (order %v)", i, got[i].Index, idx, got)
		}
	}
	// Ties keep insertion order: LinkUp(2) before LinkDown(1).
	if got[2].Kind != LinkUp || got[3].Kind != LinkDown {
		t.Errorf("tie at t=30 not stable: got %v then %v", got[2].Kind, got[3].Kind)
	}
	if len(p.Events) != 4 || p.Events[0].At != 30 {
		t.Errorf("Sorted mutated the plan: %v", p.Events)
	}
}

func TestPlanValidate(t *testing.T) {
	_, fab := leafSpine(1)
	ls := Links(fab)
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"good", *new(Plan).LinkDownUp(LeafSpine, 0, 0, simtime.Microsecond), true},
		{"index out of range", *new(Plan).LinkDownUp(LeafSpine, 4, 0, simtime.Microsecond), false},
		{"unknown role", *new(Plan).LinkDownUp(numRoles, 0, 0, simtime.Microsecond), false},
		{"negative offset", Plan{Events: []Event{{At: -1, Kind: LinkDown, Role: HostLeaf}}}, false},
		{"degrade factor 1", Plan{Events: []Event{{Kind: Degrade, Role: HostLeaf, Factor: 1}}}, false},
		{"good brownout", *new(Plan).Brownout(HostLeaf, 2, 0.5, 0, simtime.Microsecond), true},
		{"flap too many links", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 5, MTBF: 1, MTTR: 1}}}, false},
		{"flap zero mtbf", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 1, MTTR: 1}}}, false},
		{"good flap", Plan{Flaps: []Flap{{Role: LeafSpine, Links: 2, MTBF: 1, MTTR: 1}}}, true},
	}
	for _, c := range cases {
		err := c.plan.Validate(ls)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestInjectorTimeline(t *testing.T) {
	net, fab := leafSpine(1)
	var plan Plan
	plan.LinkDownUp(LeafSpine, 0, 10*simtime.Microsecond, 50*simtime.Microsecond)
	plan.Brownout(HostLeaf, 1, 0.5, 20*simtime.Microsecond, 40*simtime.Microsecond)
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	link := in.links.Of(LeafSpine)[0]
	hostLink := in.links.Of(HostLeaf)[1]
	nominal := hostLink.A.Bandwidth

	in.Start()
	net.RunUntil(simtime.Time(0).Add(30 * simtime.Microsecond))
	if !link.Down() {
		t.Error("leaf-spine link should be down at t=30µs")
	}
	if got := hostLink.A.Bandwidth; got != nominal/2 {
		t.Errorf("degraded bandwidth = %v, want %v", got, nominal/2)
	}
	for net.Q.Step() {
	}
	if link.Down() {
		t.Error("leaf-spine link should be repaired after the plan drains")
	}
	if got := hostLink.A.Bandwidth; got != nominal {
		t.Errorf("restored bandwidth = %v, want nominal %v", got, nominal)
	}

	wantKinds := []Kind{LinkDown, Degrade, Restore, LinkUp}
	if len(in.Log) != len(wantKinds) {
		t.Fatalf("log has %d entries, want %d: %v", len(in.Log), len(wantKinds), in.Log)
	}
	for i, k := range wantKinds {
		if in.Log[i].Kind != k {
			t.Errorf("log[%d].Kind = %v, want %v", i, in.Log[i].Kind, k)
		}
	}
	if want := simtime.Time(0).Add(10 * simtime.Microsecond); in.FirstFaultAt != want {
		t.Errorf("FirstFaultAt = %v, want %v", in.FirstFaultAt, want)
	}
	if want := simtime.Time(0).Add(50 * simtime.Microsecond); in.LastRepairAt != want {
		t.Errorf("LastRepairAt = %v, want %v", in.LastRepairAt, want)
	}
}

func flapLog(t *testing.T, seed int64) []Applied {
	t.Helper()
	net, fab := leafSpine(seed)
	plan := Plan{
		Flaps:   []Flap{{Role: LeafSpine, Links: 2, MTBF: 200 * simtime.Microsecond, MTTR: 50 * simtime.Microsecond}},
		Horizon: 5 * simtime.Millisecond,
	}
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	for net.Q.Step() { // horizon bounds the flap processes, so the queue drains
	}
	return in.Log
}

func TestFlapDeterminism(t *testing.T) {
	a := flapLog(t, 7)
	b := flapLog(t, 7)
	if len(a) == 0 {
		t.Fatal("flap process produced no events over 5ms with MTBF 200µs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed flap logs differ:\n a=%v\n b=%v", a, b)
	}
}

func TestFlapNeverStrandsLinks(t *testing.T) {
	net, fab := leafSpine(3)
	plan := Plan{
		Flaps:   []Flap{{Role: LeafSpine, Links: 4, MTBF: 100 * simtime.Microsecond, MTTR: 100 * simtime.Microsecond}},
		Horizon: 2 * simtime.Millisecond,
	}
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	for net.Q.Step() {
	}
	for _, l := range in.links.Of(LeafSpine) {
		if l.Down() {
			t.Errorf("link %s stranded down after the horizon drained", l.Name())
		}
	}
	downs, ups := 0, 0
	for _, a := range in.Log {
		switch a.Kind {
		case LinkDown:
			downs++
		case LinkUp:
			ups++
		}
	}
	if downs != ups {
		t.Errorf("unbalanced flap log: %d downs, %d ups", downs, ups)
	}
	if in.FlapDowns != downs {
		t.Errorf("FlapDowns = %d, want %d", in.FlapDowns, downs)
	}
}

func TestInjectorHeal(t *testing.T) {
	net, fab := leafSpine(1)
	var plan Plan
	plan.LinkDownUp(LeafSpine, 1, 0, simtime.Second) // repair far in the future
	plan.Brownout(HostLeaf, 0, 0.25, 0, simtime.Second)
	in, err := NewInjector(net, fab, plan)
	if err != nil {
		t.Fatal(err)
	}
	nominal := in.links.Of(HostLeaf)[0].A.Bandwidth
	in.Start()
	net.RunUntil(simtime.Time(0).Add(simtime.Microsecond))
	if !in.links.Of(LeafSpine)[1].Down() {
		t.Fatal("link should be down before Heal")
	}
	in.Stop()
	in.Heal()
	if in.links.Of(LeafSpine)[1].Down() {
		t.Error("Heal left the link down")
	}
	if got := in.links.Of(HostLeaf)[0].A.Bandwidth; got != nominal {
		t.Errorf("Heal left bandwidth %v, want %v", got, nominal)
	}
}

func TestStaleDropStaleness(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{StaleSlots: 2})
	var got []float64
	for i := 1; i <= 5; i++ {
		obs, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
		if !ok {
			t.Fatalf("sample %d dropped with DropProb=0", i)
		}
		got = append(got, obs.Util)
	}
	// Two slots of staleness: the first window is re-delivered during
	// warmup, then the stream lags by exactly two.
	want := []float64{1, 1, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale delivery = %v, want %v", got, want)
	}
	if f.Delivered != 5 || f.Drops != 0 {
		t.Errorf("counters = %d delivered / %d drops, want 5/0", f.Delivered, f.Drops)
	}
	// Queues are independent FIFOs.
	obs, _ := f.Sample(0, 1, acc.Observation{Util: 99})
	if obs.Util != 99 {
		t.Errorf("queue 1 first sample = %v, want its own stream (99)", obs.Util)
	}
}

func TestStaleDropAllDropped(t *testing.T) {
	f := NewStaleDrop(1, Telemetry{DropProb: 1})
	for i := 0; i < 10; i++ {
		if _, ok := f.Sample(0, 0, acc.Observation{Util: 1}); ok {
			t.Fatal("DropProb=1 delivered a window")
		}
	}
	if f.Drops != 10 || f.Delivered != 0 {
		t.Errorf("counters = %d drops / %d delivered, want 10/0", f.Drops, f.Delivered)
	}
}

func TestStaleDropDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewStaleDrop(42, Telemetry{DropProb: 0.5})
		var oks []bool
		for i := 0; i < 50; i++ {
			_, ok := f.Sample(0, 0, acc.Observation{Util: float64(i)})
			oks = append(oks, ok)
		}
		return oks
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("same-seed StaleDrop drop sequence differs between runs")
	}
}

func TestRecoveryTime(t *testing.T) {
	tr := &Tracker{Period: simtime.Microsecond}
	at := func(i int) simtime.Time { return simtime.Time(0).Add(simtime.Duration(i) * simtime.Microsecond) }
	// 10 samples at baseline 10, a dip to 2 during the fault, then back.
	vals := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2, 2, 2, 2, 9.5, 9.6, 10, 10}
	for i, v := range vals {
		tr.Goodput.Add(at(i), v)
	}
	faultAt, repairAt := at(10), at(13)
	d, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 2)
	if !ok {
		t.Fatal("recovery not detected")
	}
	// First sustained run of two samples >= 9.0 starts at t=14µs, 1µs
	// after the repair.
	if want := simtime.Microsecond; d != want {
		t.Errorf("recovery time = %v, want %v", d, want)
	}
	if _, ok := tr.RecoveryTime(faultAt, repairAt, 0.9, 10); ok {
		t.Error("recovery reported with an unsatisfiable sustain window")
	}
	if _, ok := tr.RecoveryTime(at(0), at(0), 0.9, 1); ok {
		t.Error("recovery reported with no pre-fault baseline")
	}
}
