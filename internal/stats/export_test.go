package stats

// Helpers only the tests use.

// SizeRange returns flows with lo < size <= hi (hi<=0 means unbounded).
func (c *FCTCollector) SizeRange(lo, hi int64) []FlowRecord {
	return c.Filter(func(r FlowRecord) bool {
		return r.Size > lo && (hi <= 0 || r.Size <= hi)
	})
}

// Reset drops all samples but keeps the backing arrays, so a long-lived
// monitor can be drained window by window without reallocating.
func (s *Series) Reset() {
	s.Times = s.Times[:0]
	s.Values = s.Values[:0]
}

// Max returns the maximum sample (0 when empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}
