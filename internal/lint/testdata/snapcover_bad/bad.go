// Package snapcover_bad seeds the failure snapcover exists to catch: a
// field left out of its type's Sync method. The stream stays aligned —
// one method encodes and decodes — but a restored object diverges from
// the cold run the first time the field matters.
package snapcover_bad

// Stream is the fixture's own codec stream type; the test config points
// CodecStreamType at it.
type Stream struct{ load bool }

func (s *Stream) Loading() bool { return s.load }
func (s *Stream) Tag(string)    {}

func Int(s *Stream, v *int)       {}
func Int64(s *Stream, v *int64)   {}
func Float(s *Stream, v *float64) {}

// flow drops acked from Sync: every restore silently zeroes the ack
// counter.
type flow struct {
	sent  int64
	acked int64
	rate  float64
}

func (f *flow) Sync(s *Stream) {
	s.Tag("flow")
	Int64(s, &f.sent)
	Float(s, &f.rate)
}

// params is synced through its own method from its owner's; dropped is
// missing.
type params struct {
	kmin    int
	kmax    int
	dropped int
}

func (p *params) Sync(s *Stream) {
	Int(s, &p.kmin)
	Int(s, &p.kmax)
}

type device struct {
	p params
}

func (d *device) Sync(s *Stream) {
	s.Tag("device")
	d.p.Sync(s)
}
