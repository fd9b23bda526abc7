package acc

import (
	"slices"

	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support. Tuners and Systems are restored by overlay: the world
// reconstructs them with the same constructor calls (drawing the same
// construction-time RNG values, assigning the same event sequence
// numbers), the restored eventq wipes the freshly armed timers, and Sync
// fast-forwards the tuner's private RNG stream, overlays the per-queue
// learning state, and re-arms the ΔT tick at its recorded (time, seq)
// slot.

// Sync saves or restores the tuner's dynamic state: RNG position,
// counters, tick timer slot, and per-queue collector/learning state. The
// agent is synced separately by its owner (System.Sync, or the world for a
// standalone tuner) because agents may be shared across tuners.
func (t *Tuner) Sync(s *codec.Stream) {
	s.Tag("acc-tuner")
	t.rngSrc.Sync(s)
	codec.Int(s, &t.ticks)
	codec.Uint(s, &t.Inferences)
	codec.Uint(s, &t.Skipped)
	codec.Uint(s, &t.TrainRuns)
	codec.Uint(s, &t.TelemetryDrops)
	s.Bool(&t.stopped)
	t.Net.Q.SyncTimer(s, &t.tickEv, t.tickFn)
	n := len(t.queues)
	codec.Int(s, &n)
	if s.Err() == nil && n != len(t.queues) {
		s.Fail("tuner monitors %d queues, snapshot has %d", len(t.queues), n)
	}
	for _, qs := range t.queues {
		if s.Err() != nil {
			return
		}
		h := len(qs.hist)
		s.Len(&h, 1)
		if s.Loading() {
			if h > t.Cfg.HistoryK {
				s.Fail("queue history length %d out of range", h)
				return
			}
			qs.hist = slices.Grow(qs.hist[:0], h)[:h]
		}
		for i := range qs.hist {
			codec.Floats(s, &qs.hist[i])
		}
		prev := qs.prevState != nil
		s.Bool(&prev)
		if prev {
			codec.Floats(s, &qs.prevState)
		} else if s.Loading() {
			qs.prevState = nil
		}
		codec.Int(s, &qs.prevAction)
		codec.Int(s, &qs.action)
		codec.Uint(s, &qs.lastTx)
		codec.Uint(s, &qs.lastMarked)
		codec.Float(s, &qs.lastIntegral)
		codec.Float(s, &qs.lastReward)
		codec.Int(s, &qs.sameReward)
		s.Bool(&qs.idle)
		qs.KminTrace.Sync(s)
		qs.RewardTrace.Sync(s)
	}
}

// Sync saves or restores the whole deployment's dynamic state: the
// exchange loop, the global replay, every agent (once, when shared), and
// every tuner. A restore overlays a freshly constructed System with the
// same switches and config.
func (sys *System) Sync(s *codec.Stream) {
	s.Tag("acc-system")
	codec.Uint(s, &sys.Exchanges)
	s.Bool(&sys.stopped)
	sys.Net.Q.SyncTimer(s, &sys.exchEv, sys.exchFn)
	sys.Global.Sync(s)
	if sys.Cfg.ShareModel {
		sys.Tuners[0].Agent.Sync(s)
	} else {
		for _, t := range sys.Tuners {
			t.Agent.Sync(s)
		}
	}
	for _, t := range sys.Tuners {
		t.Sync(s)
	}
}
