// Package configref_bad is the target of a Config whose entries partly
// name nothing: one stale entry per name-valued field. expected.golden
// pins one diagnostic per stale entry; the entries that resolve, and one
// for a package outside the loaded program, stay silent.
package configref_bad

// Queue is a real QueueTypes entry.
type Queue struct{}

// Tracer is a real TracerTypes entry.
type Tracer struct{}

// Coord is a real BarrierOwnedTypes entry; slots a real slot field.
type Coord struct{ slots []int }

// Stop is a real BarrierMutMethods entry.
func (c *Coord) Stop() { c.slots = nil }

// Run is a real BarrierRoots entry.
func Run(c *Coord) { c.Stop() }

// Deliver is a real HotRoots entry.
func Deliver() {}
