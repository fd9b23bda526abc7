package stats

import "github.com/accnet/acc/internal/snap/codec"

// Snapshot support for the measurement layer: time series contents.

// Sync saves or restores the series contents.
func (sr *Series) Sync(s *codec.Stream) {
	s.Tag("series")
	codec.Slice(s, &sr.Times, 1, codec.Int)
	codec.Floats(s, &sr.Values)
	if s.Err() == nil && len(sr.Values) != len(sr.Times) {
		s.Fail("series times/values length mismatch %d/%d", len(sr.Times), len(sr.Values))
	}
}
