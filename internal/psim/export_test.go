package psim

import (
	"github.com/accnet/acc/internal/faults"
	"github.com/accnet/acc/internal/simtime"
)

// HostLeafLink addresses the link between leaf l and its i'th host.
func HostLeafLink(l, i int) LinkRef { return LinkRef{Role: faults.HostLeaf, A: l, B: i} }

// RunWindows drives a sequential engine's queue at the same barrier cadence
// as Engine.Run, invoking hooks at each barrier, so the differential tests
// sample metrics at identical instants with identical run-to-barrier
// semantics.
func RunWindows(q interface {
	RunBefore(simtime.Time)
	Now() simtime.Time
}, horizon simtime.Time, window simtime.Duration, hooks ...func(barrier simtime.Time)) {
	for now := q.Now(); now < horizon; {
		b := now.Add(window)
		if b > horizon {
			b = horizon
		}
		q.RunBefore(b)
		now = b
		for _, h := range hooks {
			h(b)
		}
	}
}
