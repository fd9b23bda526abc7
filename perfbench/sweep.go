package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap"
	"github.com/accnet/acc/internal/sweep"
)

// The sweep-fork input: a 128-host leaf-spine (8 leaves x 16 hosts, 4
// spines) split over 2 shards with static ECN and 2,000 flows of up to
// 128 KB. The fork world runs them at packet fidelity on DCQCN, warmed to
// 1.5 ms once and forked into a 16-branch WRED ladder run to 2 ms. The
// twin runs the same flows cold to 2 ms at hybrid fidelity with one flow
// in three on TCP, where about 20% of flows finish analytically; at 256 KB
// under 5% do. Shards x parallel branches (1) stays within a 2-CPU
// machine.
//
// The fork world has neither hybrid fidelity nor TCP because restoring
// either is defective (README.md, "Known defects"): a hybrid fork
// diverges from its cold run, and a TCP sender parked as a NIC waiter
// cannot be restored. Forking the twin's world instead (hybridTCP true
// in forkScenario) shows both.
const (
	sweepBranches = 16
	sweepShards   = 2
)

var (
	sweepWarm    = simtime.Time(1500 * simtime.Microsecond)
	sweepHorizon = simtime.Time(2 * simtime.Millisecond)
)

func sweepScenario(seed int64, shards int, hybridTCP bool) snap.Scenario {
	sc := snap.Scenario{
		NLeaf: 8, HostsPerLeaf: 16, NSpine: 4, Shards: shards,
		Seed:  seed,
		Flows: 2000, MaxBytes: 128 * simtime.KB, Spread: 1800 * simtime.Microsecond,
		Horizon:  sweepHorizon,
		Fidelity: "packet",
	}
	if hybridTCP {
		sc.Fidelity, sc.MixTCP = "hybrid", true
	}
	return sc
}

// sweepFork is a warm-fork WRED sweep through snap: build the base world,
// run it to the warm point, snapshot it once, then fork every ladder
// branch from the image and run it to the horizon; then run the hybrid
// TCP twin cold.
type sweepFork struct {
	seed     int64
	branches []snap.Variant
}

func newSweepFork(seed int64) *sweepFork {
	return &sweepFork{seed: seed, branches: sweep.WREDLadder(sweepBranches)}
}

func (s *sweepFork) workUnit() string { return "events" }

// forkScenario is the world the sweep forks: packet fidelity, DCQCN only
// (see the note on the sweep-fork input).
func (s *sweepFork) forkScenario(shards int) snap.Scenario {
	return sweepScenario(s.seed, shards, false)
}

// build builds the fork world's base and the twin.
func (s *sweepFork) build() (base, twin *snap.World, err error) {
	if base, err = snap.Build(s.forkScenario(sweepShards)); err != nil {
		return nil, nil, err
	}
	twin, err = snap.Build(sweepScenario(s.seed, sweepShards, true))
	return base, twin, err
}

// setup is snap.Build of the base world and of the twin.
func (s *sweepFork) setup() ([]outcome, error) {
	base, twin, err := s.build()
	if err != nil {
		return nil, err
	}
	base.Stop()
	twin.Stop()
	return nil, nil
}

// batchStats is what one sweep batch did, beyond its outcomes.
type batchStats struct {
	events, packets     uint64
	windows             int
	image               int
	snapshot, forkTotal time.Duration
	forks               []float64 // per-fork seconds
	runWall, runCPU     time.Duration
	hyb                 hybridCounts
}

// hybridCounts are the hybrid engine counters the per-layer table uses.
type hybridCounts struct{ started, analytic, demotions, ticks uint64 }

func hybridOf(w *snap.World) hybridCounts {
	if w.Hyb == nil {
		return hybridCounts{}
	}
	s := w.Hyb.Stats
	return hybridCounts{s.FlowsStarted, s.AnalyticFlows, s.Demotions, s.Ticks}
}

func (a hybridCounts) add(b, minus hybridCounts) hybridCounts {
	return hybridCounts{
		a.started + b.started - minus.started,
		a.analytic + b.analytic - minus.analytic,
		a.demotions + b.demotions - minus.demotions,
		a.ticks + b.ticks - minus.ticks,
	}
}

// batch runs one sweep over the given branches from a freshly built base
// world: run it to the warm point, snapshot it, fork and run each branch.
// Then, with twin non-nil, it runs the twin to the horizon. With run
// non-nil, each forked world and the twin are attached to it and counted.
func batch(base, twin *snap.World, branches []snap.Variant, run *obs.Run) ([]outcome, batchStats, error) {
	var st batchStats
	base.E.OnBarrier(func(simtime.Time) { st.windows++ })
	u := readUsage()
	base.Run(sweepWarm)
	d := u.since()
	st.runWall, st.runCPU = d.wall, d.cpu
	st.events = base.E.Processed()
	st.packets = packetsAlloced(base)
	st.hyb = hybridOf(base)
	start := time.Now()
	img := base.Snapshot()
	st.snapshot = time.Since(start)
	st.image = len(img)
	base.Stop()

	outs := make([]outcome, 0, len(branches)+1)
	for _, v := range branches {
		start := time.Now()
		f, err := snap.Fork(img, v)
		if err != nil {
			// A branch that cannot be forked is a failed outcome, not a
			// crash: the run still reports on the other branches.
			outs = append(outs, outcome{name: "branch_" + v.Name, err: err.Error()})
			continue
		}
		fd := time.Since(start)
		st.forkTotal += fd
		st.forks = append(st.forks, fd.Seconds())
		f.AttachObs(run)
		f.E.OnBarrier(func(simtime.Time) { st.windows++ })
		events0, packets0, hyb0 := f.E.Processed(), packetsAlloced(f), hybridOf(f)
		u := readUsage()
		f.Run(sweepHorizon)
		d := u.since()
		st.runWall += d.wall
		st.runCPU += d.cpu
		f.Stop()
		sum := f.Summarize()
		st.events += sum.Processed - events0
		st.packets += packetsAlloced(f) - packets0
		st.hyb = st.hyb.add(hybridOf(f), hyb0)
		outs = append(outs, branchOutcome(v, sum))
	}
	if twin != nil {
		twin.AttachObs(run)
		twin.E.OnBarrier(func(simtime.Time) { st.windows++ })
		u := readUsage()
		twin.Run(sweepHorizon)
		d := u.since()
		st.runWall += d.wall
		st.runCPU += d.cpu
		twin.Stop()
		sum := twin.Summarize()
		st.events += sum.Processed
		st.packets += packetsAlloced(twin)
		st.hyb = st.hyb.add(hybridOf(twin), hybridCounts{})
		outs = append(outs, outcome{name: "twin", digest: fmt.Sprintf("%016x", sum.Digest)})
	}
	return outs, st, nil
}

func branchOutcome(v snap.Variant, s snap.Summary) outcome {
	return outcome{name: "branch_" + v.Name, digest: fmt.Sprintf("%016x", s.Digest)}
}

func packetsAlloced(w *snap.World) uint64 {
	var n uint64
	for _, sh := range w.E.Shards {
		n += sh.Net.PacketsAlloced()
	}
	return n
}

// iterate builds the base world and the twin (outside the measured span;
// setup times the same builds) and runs one sweep batch on them. Its work
// is the batch's simulator events.
func (s *sweepFork) iterate() (iteration, error) {
	base, twin, err := s.build()
	if err != nil {
		return iteration{}, err
	}
	u := readUsage()
	outs, st, err := batch(base, twin, s.branches, nil)
	d := u.since()
	if err != nil {
		return iteration{}, err
	}
	return iteration{
		wall: d.wall, cpu: d.cpu, alloc: d.alloc,
		work:     float64(st.events),
		outcomes: outs,
	}, nil
}

// coldCheck reruns branches cold — snap.Build, run to the warm point,
// apply the variant, run to the horizon — so the gate compares each
// against its warm fork. all selects every branch; otherwise one branch,
// chosen by the seed, is checked.
func (s *sweepFork) coldCheck(all bool) ([]outcome, error) {
	branches := s.branches
	if !all {
		i := int(uint64(s.seed) % uint64(len(branches)))
		branches = branches[i : i+1]
	}
	var outs []outcome
	for _, v := range branches {
		w, err := snap.Build(s.forkScenario(sweepShards))
		if err != nil {
			return nil, err
		}
		w.Run(sweepWarm)
		if err := w.ApplyVariant(v); err != nil {
			return nil, err
		}
		w.Run(sweepHorizon)
		w.Stop()
		outs = append(outs, branchOutcome(v, w.Summarize()))
	}
	return outs, nil
}

func (s *sweepFork) trace(untraced time.Duration, m map[string]float64) ([]outcome, error) {
	base, twin, err := s.build()
	if err != nil {
		return nil, err
	}
	run := obs.NewRun(1024)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	u := readUsage()
	outs, st, err := batch(base, twin, s.branches, run)
	d := u.since()
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	events, packets := float64(st.events), float64(st.packets)
	setShares(m, shares)
	m["eventq.events"] = events
	m["eventq.ns_per_event"] = perUnit(shares.ns["eventq"], events)
	m["netsim.packets"] = packets
	m["netsim.ns_per_packet"] = perUnit(shares.ns["netsim"], packets)
	setKindCounts(m, run.Tracer.Snapshot().ByKind)
	if st.hyb.started > 0 {
		m["hybrid.analytic_frac"] = float64(st.hyb.analytic) / float64(st.hyb.started)
	}
	m["hybrid.demotions"] = float64(st.hyb.demotions)
	m["hybrid.ticks"] = float64(st.hyb.ticks)
	m["psim.windows"] = float64(st.windows)
	m["psim.busy_frac"] = busyFrac(st.runCPU, st.runWall, sweepShards)
	m["snap.image_bytes"] = float64(st.image)
	m["snap.snapshot_ms"] = st.snapshot.Seconds() * 1e3
	m["snap.fork_ms"] = median(st.forks) * 1e3
	m["snap.fork_frac"] = st.forkTotal.Seconds() / d.wall.Seconds()
	m["runtime.gc_frac"] = d.gcFrac
	m["runtime.alloc_b_per_event"] = float64(d.alloc) / events
	m["trace_overhead"] = d.wall.Seconds() / untraced.Seconds()

	// Locality versus parallelism: the same sweep on 2 shards and on 1,
	// each at GOMAXPROCS 1 and 2. At one proc a 2-shard speed-up can only
	// come from locality (smaller per-shard queues and working sets); the
	// extra speed-up at two procs is parallelism. Every 1-shard branch must
	// reproduce its 2-shard digest.
	type cell struct {
		wall, cpu time.Duration
		outs      []outcome
	}
	measure := func(shards, procs int) (cell, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		base, err := snap.Build(s.forkScenario(shards))
		if err != nil {
			return cell{}, err
		}
		outs, st, err := batch(base, nil, s.branches, nil)
		return cell{st.runWall, st.runCPU, outs}, err
	}
	var cells [2][2]cell // [shards-1][procs-1]
	for shards := 1; shards <= 2; shards++ {
		for procs := 1; procs <= 2; procs++ {
			c, err := measure(shards, procs)
			if err != nil {
				return nil, err
			}
			cells[shards-1][procs-1] = c
			outs = append(outs, c.outs...)
		}
	}
	ratio := func(a, b time.Duration) float64 { return a.Seconds() / b.Seconds() }
	m["psim.busy_frac_p1"] = busyFrac(cells[1][0].cpu, cells[1][0].wall, sweepShards)
	m["psim.wall_ratio_p1_p2"] = ratio(cells[1][0].wall, cells[1][1].wall)
	m["psim.locality_speedup"] = ratio(cells[0][0].wall, cells[1][0].wall)
	m["psim.shard_speedup"] = ratio(cells[0][1].wall, cells[1][1].wall)
	return outs, nil
}

// busyFrac is the share of shards x wall the process spent on CPU; the
// rest is time shards waited at the barrier.
func busyFrac(cpu, wall time.Duration, shards int) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(shards))
}
