package snap

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Summary is the deterministic outcome surface of one world: everything
// the sweep CSVs report and the bit-identity checks compare. Two runs of
// the same scenario (cold, resumed, or forked with the same variant)
// produce byte-identical Summaries.
type Summary struct {
	FlowsOffered   int
	FlowsCompleted int
	Marks, Drops   uint64
	Blackholed     uint64
	BufferDrops    uint64
	PFCPauses      uint64
	MeanGbps       float64
	Processed      uint64
	Digest         uint64
}

// Summarize collects the world's outcome surface and its FNV-64a digest:
// per-flow completion times, per-switch mark/drop counters, fabric loss
// aggregates, the goodput series, and the event total — the same surface
// the mix experiments hash, so a CSV diff is a determinism check.
func (w *World) Summarize() Summary {
	marks, drops := w.E.SwitchTotals()
	snap := w.E.Snap()

	var s Summary
	s.FlowsOffered = len(w.App.End)
	s.FlowsCompleted = w.App.DoneCount()
	for i := range marks {
		s.Marks += marks[i]
		s.Drops += drops[i]
	}
	s.Blackholed = snap.Blackholed
	s.BufferDrops = snap.BufferDrops
	s.PFCPauses = snap.PFCPauses
	if n := len(w.Smp.Gbps); n > 0 {
		var sum float64
		for _, g := range w.Smp.Gbps {
			sum += g
		}
		s.MeanGbps = sum / float64(n)
	}
	s.Processed = w.E.Processed()

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, end := range w.App.End {
		put(uint64(end))
	}
	for i := range marks {
		put(marks[i])
		put(drops[i])
	}
	put(snap.Blackholed)
	put(snap.BufferDrops)
	put(snap.PFCPauses)
	for i := range w.Smp.Times {
		put(uint64(w.Smp.Times[i]))
		put(math.Float64bits(w.Smp.Gbps[i]))
	}
	put(s.Processed)
	s.Digest = h.Sum64()
	return s
}
