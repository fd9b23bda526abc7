package snap

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/accnet/acc/internal/psim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// testScenario is a small congested fabric: enough flows per host pair to
// build queues (marks, PFC), a flapping leaf-spine link, and a mixed
// TCP/DCQCN population.
func testScenario(shards int, fidelity string) Scenario {
	return Scenario{
		NLeaf: 4, HostsPerLeaf: 3, NSpine: 2, Shards: shards,
		Seed:  7,
		Flows: 48, MaxBytes: 96 * simtime.KB, Spread: 150 * simtime.Microsecond, MixTCP: true,
		FaultLinks: 1, MTBF: 200 * simtime.Microsecond, MTTR: 40 * simtime.Microsecond, FaultSeed: 11,
		Horizon:  simtime.Time(600 * simtime.Microsecond),
		Fidelity: fidelity,
	}
}

// runCold builds and runs a scenario straight to its horizon.
func runCold(t *testing.T, sc Scenario) Summary {
	t.Helper()
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon)
	return w.Summarize()
}

// TestRestoreContinuity is the tentpole proof obligation: run to a
// mid-run instant, snapshot, restore into a fresh world, run to the
// horizon — and get the bit-identical outcome surface of the
// uninterrupted run. Sequential and sharded, both fidelities, with and
// without ACC.
func TestRestoreContinuity(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"packet-seq", func(sc *Scenario) { sc.Shards = 1 }},
		{"packet-shards4", func(sc *Scenario) { sc.Shards = 4 }},
		{"hybrid-seq", func(sc *Scenario) { sc.Shards = 1; sc.Fidelity = "hybrid" }},
		{"hybrid-shards4", func(sc *Scenario) { sc.Shards = 4; sc.Fidelity = "hybrid" }},
		{"acc-shards4", func(sc *Scenario) {
			sc.Shards = 4
			sc.ACC = true
			sc.WRED = &red.Config{Kmin: 40 * simtime.KB, Kmax: 160 * simtime.KB, Pmax: 0.2}
		}},
		{"wred-packet-seq", func(sc *Scenario) {
			sc.Shards = 1
			sc.WRED = &red.Config{Kmin: 20 * simtime.KB, Kmax: 80 * simtime.KB, Pmax: 0.5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(1, "packet")
			tc.mut(&sc)
			cold := runCold(t, sc)
			if cold.FlowsCompleted == 0 {
				t.Fatalf("scenario completed no flows; test exercises nothing")
			}

			warm, err := Build(sc)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			mid := sc.Horizon / 2
			warm.Run(mid)
			img := warm.Snapshot()

			resumed, err := Restore(img)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if resumed.Now() != warm.Now() {
				t.Fatalf("restored clock %v, want %v", resumed.Now(), warm.Now())
			}
			resumed.Run(sc.Horizon)
			got := resumed.Summarize()
			if got != cold {
				t.Fatalf("restore≢continuous:\n cold   %+v\n resumed %+v", cold, got)
			}
		})
	}
}

// TestSnapshotIsRepeatable: snapshotting must not perturb the world — the
// snapshotted run continues to the same outcome as the cold run, and a
// second snapshot of a restored world equals a snapshot of the original
// at the same instant.
func TestSnapshotIsRepeatable(t *testing.T) {
	sc := testScenario(4, "hybrid")
	cold := runCold(t, sc)

	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mid := sc.Horizon / 2
	w.Run(mid)
	img := w.Snapshot()
	w.Run(sc.Horizon) // the snapshotted world keeps running
	if got := w.Summarize(); got != cold {
		t.Fatalf("snapshotting perturbed the run:\n cold %+v\n got  %+v", cold, got)
	}

	r1, err := Restore(img)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	img2 := r1.Snapshot()
	if string(img) != string(img2) {
		t.Fatalf("restore→snapshot is not byte-identical to the original snapshot (%d vs %d bytes)", len(img), len(img2))
	}
}

// sweepWorld is the warm-fork sweep's fabric (8 leaves of 16 hosts, 4
// spines, 2 shards, 2,000 flows of at most 128 KB over 1.8 ms) with TCP
// mixed in.
func sweepWorld(seed int64, fidelity string) Scenario {
	return Scenario{
		NLeaf: 8, HostsPerLeaf: 16, NSpine: 4, Shards: 2,
		Seed:  seed,
		Flows: 2000, MaxBytes: 128 * simtime.KB, Spread: 1800 * simtime.Microsecond, MixTCP: true,
		Horizon:  simtime.Time(2 * simtime.Millisecond),
		Fidelity: fidelity,
	}
}

// wredLadder returns the first n branches of sweep.WREDLadder (package
// sweep imports snap, so the ladder is restated here).
func wredLadder(n int) []Variant {
	var out []Variant
	for i := 0; i < n; i++ {
		kmin := (10 + 15*i) * simtime.KB
		out = append(out, Variant{
			Name: fmt.Sprintf("wred-%02d", i),
			WRED: &red.Config{Kmin: kmin, Kmax: 4 * kmin, Pmax: 0.2 + 0.05*float64(i%8)},
		})
	}
	return out
}

// TestForkMatchesColdRun: every branch forked from a warm snapshot must be
// bit-identical to a cold run that applied the same variant at the same
// instant — the property that lets sweeps share one warmup. The sweep
// worlds pin two restore defects: hybrid link rate sums that lost their
// fraction or summation order (hybrid-tcp), and a fully acknowledged TCP
// sender still parked as a NIC waiter at the snapshot (packet-tcp-waiter).
func TestForkMatchesColdRun(t *testing.T) {
	faultBurst := func(branch simtime.Time) Variant {
		return Variant{Name: "fault-burst", Faults: []psim.FaultEvent{
			{At: branch.Add(20 * simtime.Microsecond), Link: psim.LeafSpineLink(1, 1), Down: true},
			{At: branch.Add(120 * simtime.Microsecond), Link: psim.LeafSpineLink(1, 1), Down: false},
		}}
	}
	small := func(fidelity string) (Scenario, simtime.Time, []Variant) {
		sc := testScenario(4, fidelity)
		branch := sc.Horizon / 2
		return sc, branch, []Variant{
			{Name: "wred-shallow", WRED: &red.Config{Kmin: 10 * simtime.KB, Kmax: 40 * simtime.KB, Pmax: 0.8}},
			faultBurst(branch),
			{Name: "baseline"},
		}
	}
	warmPoint := simtime.Time(1500 * simtime.Microsecond)
	cases := []struct {
		name     string
		sc       Scenario
		branch   simtime.Time
		variants []Variant
	}{
		{name: "packet"},
		{name: "hybrid"},
		{"hybrid-tcp", sweepWorld(1, "hybrid"), warmPoint, wredLadder(3)},
		{"packet-tcp-waiter", sweepWorld(1269363702, "packet"), warmPoint, wredLadder(1)},
	}
	cases[0].sc, cases[0].branch, cases[0].variants = small("packet")
	cases[1].sc, cases[1].branch, cases[1].variants = small("hybrid")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, branch := tc.sc, tc.branch
			warm, err := Build(sc)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			warm.Run(branch)
			img := warm.Snapshot()
			again, err := Restore(img)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if string(again.Snapshot()) != string(img) {
				t.Fatalf("restore→snapshot is not byte-identical to the original snapshot")
			}

			for _, v := range tc.variants {
				forked, err := Fork(img, v)
				if err != nil {
					t.Fatalf("Fork(%s): %v", v.Name, err)
				}
				forked.Run(sc.Horizon)
				got := forked.Summarize()

				coldW, err := Build(sc)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				coldW.Run(branch)
				if err := coldW.ApplyVariant(v); err != nil {
					t.Fatalf("ApplyVariant(%s): %v", v.Name, err)
				}
				coldW.Run(sc.Horizon)
				want := coldW.Summarize()

				if got != want {
					t.Fatalf("fork≢cold for %s:\n cold %+v\n fork %+v", v.Name, want, got)
				}
			}
		})
	}
}

// TestKillResumeFile: the crash-resume path — snapshot to a file, rebuild
// from the file alone (the scenario rides inside), and reach the cold
// run's outcome.
func TestKillResumeFile(t *testing.T) {
	sc := testScenario(4, "hybrid")
	sc.ACC = true
	cold := runCold(t, sc)

	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon / 2)
	path := filepath.Join(t.TempDir(), "world.accsnap")
	if err := WriteFile(path, w.Snapshot()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	data, got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got != sc {
		t.Fatalf("embedded scenario %+v differs from %+v", got, sc)
	}
	resumed, err := Restore(data)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resumed.Run(sc.Horizon)
	if got := resumed.Summarize(); got != cold {
		t.Fatalf("kill-resume≢continuous:\n cold    %+v\n resumed %+v", cold, got)
	}
}

// TestRestoreRejectsCorruption: flipped bytes and truncation must fail
// loudly, never restore a half-world.
func TestRestoreRejectsCorruption(t *testing.T) {
	sc := testScenario(1, "packet")
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(sc.Horizon / 2)
	img := w.Snapshot()

	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Restore(flipped); err == nil {
		t.Fatalf("Restore accepted a corrupted stream")
	}
	if _, err := Restore(img[:len(img)-6]); err == nil {
		t.Fatalf("Restore accepted a truncated stream")
	}
	if _, err := Peek([]byte("not a snapshot")); err == nil {
		t.Fatalf("Peek accepted garbage")
	}
}

// TestVariantValidation: rewinding faults and out-of-range links are
// configuration errors, not silent schedule corruption.
func TestVariantValidation(t *testing.T) {
	sc := testScenario(1, "packet")
	w, err := Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Run(simtime.Time(100 * simtime.Microsecond))
	past := Variant{Faults: []psim.FaultEvent{{At: simtime.Time(10 * simtime.Microsecond), Link: psim.LeafSpineLink(0, 0), Down: true}}}
	if err := w.ApplyVariant(past); err == nil {
		t.Fatalf("ApplyVariant accepted a fault before the branch instant")
	}
	oob := Variant{Faults: []psim.FaultEvent{{At: simtime.Time(200 * simtime.Microsecond), Link: psim.LeafSpineLink(99, 0), Down: true}}}
	if err := w.ApplyVariant(oob); err == nil {
		t.Fatalf("ApplyVariant accepted an out-of-range link")
	}
	bad := Variant{WRED: &red.Config{Kmin: 100, Kmax: 50, Pmax: 0.5}}
	if err := w.ApplyVariant(bad); err == nil {
		t.Fatalf("ApplyVariant accepted an invalid WRED template")
	}
}

// TestScenarioValidation exercises Build's input rejection.
func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{NLeaf: 1, HostsPerLeaf: 1, NSpine: 1, Horizon: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, Fidelity: "fluid"},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, FaultLinks: 1},
		{NLeaf: 2, HostsPerLeaf: 1, NSpine: 1, Horizon: 1, WRED: &red.Config{Kmin: 2, Kmax: 1, Pmax: 0.1}},
	}
	for i, sc := range bad {
		if _, err := Build(sc); err == nil {
			t.Errorf("case %d: Build accepted invalid scenario %+v", i, sc)
		}
	}
	if _, err := os.Stat("/nonexistent-snap-dir/x.accsnap"); err == nil {
		t.Skip("unexpected path exists")
	}
	if _, _, err := ReadFile("/nonexistent-snap-dir/x.accsnap"); err == nil {
		t.Errorf("ReadFile accepted a missing path")
	}
}
