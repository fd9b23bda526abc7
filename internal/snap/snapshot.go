package snap

// The snapshot stream layout (after the codec's magic/version header):
//
//	"snap-world"
//	  "scenario"     — the Scenario, so Restore rebuilds from the stream alone
//	  "psim"         — barrier clock + every shard's network (internal/psim)
//	  hybrid flag    — fidelity cross-check against the scenario
//	  ["psim-hybrid"]— fast-forward engine + hybrid bookkeeping
//	  "applied"      — live transports + completion table
//	  "sampler"      — goodput series
//	  ACC count, ["acc-system"]... — per-shard deployments, shard order
//
// plus the codec's CRC-32 trailer. Restore ordering is load-bearing and
// documented on Restore.

import (
	"fmt"
	"os"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/snap/codec"
)

// Sync saves or restores the scenario section.
func (sc *Scenario) Sync(s *codec.Stream) {
	s.Tag("scenario")
	codec.Int(s, &sc.NLeaf)
	codec.Int(s, &sc.HostsPerLeaf)
	codec.Int(s, &sc.NSpine)
	codec.Int(s, &sc.Shards)
	codec.Int(s, &sc.Seed)
	codec.Int(s, &sc.Flows)
	codec.Int(s, &sc.MaxBytes)
	codec.Int(s, &sc.Spread)
	s.Bool(&sc.MixTCP)
	codec.Int(s, &sc.FaultLinks)
	codec.Int(s, &sc.MTBF)
	codec.Int(s, &sc.MTTR)
	codec.Int(s, &sc.FaultSeed)
	codec.Int(s, &sc.Horizon)
	s.String(&sc.Fidelity)
	wred := sc.WRED != nil
	s.Bool(&wred)
	if wred {
		if s.Loading() {
			sc.WRED = &red.Config{}
		}
		codec.Int(s, &sc.WRED.Kmin)
		codec.Int(s, &sc.WRED.Kmax)
		codec.Float(s, &sc.WRED.Pmax)
	} else if s.Loading() {
		sc.WRED = nil
	}
	s.Bool(&sc.ACC)
	codec.Int(s, &sc.SamplePeriod)
}

// readScenario decodes and validates the scenario section of a reading
// stream.
func readScenario(s *codec.Stream) (Scenario, error) {
	var sc Scenario
	s.Tag("snap-world")
	sc.Sync(s)
	if err := s.Err(); err != nil {
		return sc, err
	}
	return sc, sc.Validate()
}

// syncSections saves or restores everything after the scenario, in
// stream order. On restore the order is load-bearing; see Restore.
func (w *World) syncSections(s *codec.Stream) {
	w.E.Sync(s)
	if s.Loading() && s.Err() == nil {
		w.App.RestorePending()
	}
	hyb := w.App.Hybrid != nil
	s.Bool(&hyb)
	if s.Err() == nil && hyb != (w.App.Hybrid != nil) {
		s.Fail("snap: stream fidelity disagrees with scenario %q", w.Sc.Fidelity)
	}
	if w.App.Hybrid != nil {
		w.App.Hybrid.Sync(s)
	}
	w.App.Sync(s, w.E)
	w.Smp.Sync(s)
	n := len(w.ACC)
	codec.Int(s, &n)
	if s.Err() == nil && n != len(w.ACC) {
		s.Fail("snap: stream has %d ACC deployments, world has %d", n, len(w.ACC))
	}
	for _, sys := range w.ACC {
		sys.Sync(s)
	}
}

// Snapshot captures the world's complete dynamic state. Call with the
// engine quiescent: after Run returned, or from a barrier hook. The
// returned stream is self-contained (it embeds the Scenario) and
// CRC-protected.
func (w *World) Snapshot() []byte {
	s := codec.NewWriter()
	s.Tag("snap-world")
	w.Sc.Sync(s)
	w.syncSections(s)
	return s.Finish()
}

// Restore rebuilds the world a snapshot was taken from and overlays the
// saved state, returning a world that continues bit-identically to the
// uninterrupted run. The overlay order is load-bearing:
//
//  1. Build — reconstructs every object, closure, and routing table; the
//     hybrid apply path starts due flows synchronously, and ACC arms its
//     tick timers, exactly as the original construction did.
//  2. Engine.Sync — clears every rebuilt queue, restores clocks,
//     counters, RNG draw positions, buffers, and in-flight packets.
//  3. Applied.RestorePending — re-inserts still-pending plan events
//     (their rebuilt handles carry the original (time, seq) slots).
//  4. HybridState.Sync — overlays the fast-forward engine and re-binds
//     flow callbacks (hybrid worlds only; before step 5 so mid-window
//     completion marks land on restored bookkeeping).
//  5. Applied.Sync — discards construction-time transports, rebuilds the
//     live ones, re-parks NIC waiters.
//  6. Sampler and ACC overlays — series, agents, optimizer state, and
//     timer re-arming onto the restored queues.
func Restore(data []byte) (*World, error) {
	s, err := codec.NewReader(data)
	if err != nil {
		return nil, err
	}
	sc, err := readScenario(s)
	if err != nil {
		return nil, err
	}
	w, err := Build(sc)
	if err != nil {
		return nil, err
	}
	w.syncSections(s)
	if err := s.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// Fork restores a snapshot and applies a branch variant at the restored
// instant: the warm-start primitive. A forked branch is bit-identical to
// a cold run of the same scenario that applied the same variant at the
// same virtual time.
func Fork(data []byte, v Variant) (*World, error) {
	w, err := Restore(data)
	if err != nil {
		return nil, err
	}
	if err := w.ApplyVariant(v); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteFile writes a snapshot stream to path.
func WriteFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// ReadFile reads a snapshot file and validates its header, CRC trailer,
// and embedded scenario without building anything — the preflight the
// CLIs run before committing to a resume.
func ReadFile(path string) ([]byte, Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("snap: %w", err)
	}
	sc, err := Peek(data)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("snap: %s: %w", path, err)
	}
	return data, sc, nil
}

// Peek decodes just the scenario header of a snapshot stream.
func Peek(data []byte) (Scenario, error) {
	s, err := codec.NewReader(data)
	if err != nil {
		return Scenario{}, err
	}
	return readScenario(s)
}
