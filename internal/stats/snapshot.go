package stats

import (
	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support for the measurement layer: time series contents and the
// monitors' self-rescheduling tick slots. Restore overlays a freshly
// constructed monitor (same queue/port/period) — the constructor armed a
// first tick, the restored eventq wiped it, and Sync re-arms the recorded
// one.

// Sync saves or restores the series contents.
func (sr *Series) Sync(s *codec.Stream) {
	s.Tag("series")
	codec.Slice(s, &sr.Times, 1, codec.Int)
	codec.Floats(s, &sr.Values)
	if s.Err() == nil && len(sr.Values) != len(sr.Times) {
		s.Fail("series times/values length mismatch %d/%d", len(sr.Times), len(sr.Values))
	}
}

// syncTick saves or restores a monitor's next-tick slot and, on restore,
// re-arms a pending tick at it.
func syncTick(s *codec.Stream, net *netsim.Network, pending *bool, at *simtime.Time, seq *uint64, fn func(any)) {
	s.Bool(pending)
	codec.Int(s, at)
	codec.Uint(s, seq)
	if *pending {
		net.Q.RestoreCall(s, *at, *seq, fn, nil)
	}
}

// Sync saves or restores the monitor's samples and pending tick slot.
func (m *QueueMonitor) Sync(s *codec.Stream) {
	s.Tag("qmon")
	m.Series.Sync(s)
	s.Bool(&m.stopped)
	syncTick(s, m.net, &m.nextPending, &m.nextAt, &m.nextSeq, m.tickFn)
}

// Sync saves or restores the meter's samples, byte cursor, and pending
// tick slot.
func (m *ThroughputMeter) Sync(s *codec.Stream) {
	s.Tag("tmeter")
	m.Series.Sync(s)
	codec.Uint(s, &m.lastTx)
	s.Bool(&m.stopped)
	syncTick(s, m.net, &m.nextPending, &m.nextAt, &m.nextSeq, m.tickFn)
}
