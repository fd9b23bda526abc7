package perf

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/accnet/acc/internal/eventq"
	"github.com/accnet/acc/internal/simtime"
)

// Scheduler microbenchmarks: the eventq hot path isolated from the network
// model, across the regimes the simulator actually produces. ns/op here is
// the per-event scheduler overhead that multiplies into every figure and
// every RL rollout.
//
// CI runs these with -benchtime=1x as a smoke test; locally use
//
//	go test -bench BenchmarkSched -benchtime=2s ./internal/perf

// BenchmarkSchedPending holds N pending events in steady state (hold-model
// workload: pop the earliest, schedule a replacement at a random horizon).
// The sweep from 1e2 to 1e6 pending events exposes how scheduling cost
// scales with queue depth — the binary heap's O(log n) pointer-chasing is
// exactly what the calendar's O(1) bucket insert replaces.
func BenchmarkSchedPending(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q := eventq.New()
			fn := func(any) {}
			// Mean inter-event spacing of ~50ns keeps bucket occupancy in
			// the line-rate regime regardless of N.
			horizon := 100 * n
			for i := 0; i < n; i++ {
				q.CallAfter(simtime.Duration(rng.Intn(horizon)), fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Step()
				q.CallAfter(simtime.Duration(rng.Intn(horizon)), fn, nil)
			}
			b.StopTimer()
			for q.Step() {
			}
		})
	}
}

// BenchmarkSchedCancelHeavy is the cancel-dominated mix: most scheduled
// timers are cancelled before firing (speculative timeouts), leaving
// tombstones the scheduler must reap lazily.
func BenchmarkSchedCancelHeavy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	q := eventq.New()
	var pend []*eventq.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pend = append(pend, q.After(simtime.Duration(1000+rng.Intn(10_000)), func() {}))
		if len(pend) >= 64 {
			// Cancel three quarters, let the rest fire.
			for k, ev := range pend {
				if k%4 != 0 {
					ev.Cancel()
				}
			}
			pend = pend[:0]
			q.RunUntil(q.Now().Add(2000))
		}
	}
	for q.Step() {
	}
}

// BenchmarkSchedResetHeavy is the re-arm-dominated mix: a fleet of timers
// that are rescheduled far more often than they fire, half near-horizon
// (pacing-like, inside the calendar window) and half far-horizon (RTO-like,
// in the overflow structure).
func BenchmarkSchedResetHeavy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q := eventq.New()
	fn := func() {}
	const slots = 64
	var evs [slots]*eventq.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(slots)
		var d simtime.Duration
		if k%2 == 0 {
			d = simtime.Duration(500 + rng.Intn(5_000)) // near: calendar
		} else {
			d = simtime.Duration(1_000_000 + rng.Intn(3_000_000)) // far: overflow
		}
		evs[k] = q.ResetAfter(evs[k], d, fn)
		if i%16 == 0 {
			q.RunUntil(q.Now().Add(100))
		}
	}
	for q.Step() {
	}
}
