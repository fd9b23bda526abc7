// Package snapcover_ok exercises every legitimate way a field is
// accounted for: synced, rebuilt on restore inside Sync, set by the
// restore constructor that calls Sync, function-valued (implicitly
// exempt), or annotated with //acclint:ignore snapcover and a reason.
package snapcover_ok

// Stream is the fixture's own codec stream type; the test config points
// CodecStreamType at it.
type Stream struct{ load bool }

func (s *Stream) Loading() bool { return s.load }
func (s *Stream) Tag(string)    {}

func Int(s *Stream, v *int)     {}
func Int64(s *Stream, v *int64) {}

type registry struct {
	n int
}

// engine covers each exemption class exactly once: ticks is synced, cache
// is rebuilt on restore, reg is wired by the restore constructor, owner
// carries an explicit annotation, and tick is a function value with no
// serializable identity.
type engine struct {
	ticks int64
	cache []int64
	reg   *registry
	//acclint:ignore snapcover construction wiring: the owner registry is rebound by whoever builds the engine, mirroring the real tree's Network/Queue back-references
	owner *registry
	tick  func()
}

func (e *engine) Sync(s *Stream) {
	s.Tag("engine")
	Int64(s, &e.ticks)
	if s.Loading() {
		e.cache = e.cache[:0]
	}
}

// restoreEngine is the restore constructor: it wires construction state
// and then overlays the stream.
func restoreEngine(reg *registry, s *Stream) *engine {
	e := &engine{reg: reg}
	e.Sync(s)
	return e
}

// params is synced through its own method with full coverage.
type params struct {
	kmin int
	kmax int
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
