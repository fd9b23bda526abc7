// Package acc implements the paper's contribution: automatic ECN-threshold
// tuning by multi-agent deep reinforcement learning. One Tuner attaches to
// each switch (the distributed D-ACC design of §3.2); it observes per-queue
// telemetry each ΔT, selects an ECN template (Kmin, Kmax, Pmax) with a
// Double-DQN agent, applies it through the switch's configuration interface,
// and learns online from the resulting reward. A System couples the tuners
// through a global replay memory (§3.4); Centralized implements the C-ACC
// baseline the paper compares against (§5.4).
package acc

import (
	"math"

	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/simtime"
)

// EAlpha is α of the paper's discretization function E(n) = α·2ⁿ KB
// (equation 1; α=20 "in our system").
const EAlpha = 20

// ELevels is the number of discrete E(n) levels (n = 0..9).
const ELevels = 10

// E returns the paper's exponential discretization E(n) = 20·2ⁿ KB in
// bytes, clamping n into [0, ELevels-1].
func E(n int) int {
	if n < 0 {
		n = 0
	}
	if n >= ELevels {
		n = ELevels - 1
	}
	return EAlpha * (1 << uint(n)) * simtime.KB
}

// LevelOf returns n = argmin_n E(n) >= bytes, or ELevels when bytes exceeds
// E(9) (the "off the scale" bucket used by the reward and by state
// discretization).
func LevelOf(bytes int) int {
	for n := 0; n < ELevels; n++ {
		if E(n) >= bytes {
			return n
		}
	}
	return ELevels
}

// DefaultTemplate is the 20-entry ECN configuration template installed in
// the forwarding chip (§4.1 "configurator maps the action into ECN
// template"); its size matches the paper's 20-node output layer (§6). The
// entries sweep Kmin over all ten E(n) levels at two marking aggressiveness
// levels, with Kmax tied to Kmin but within the §3.3 coarse choices.
func DefaultTemplate() []red.Config {
	var out []red.Config
	for n := 0; n < ELevels; n++ {
		kmin := E(n)
		kmax := 8 * kmin
		if kmax < simtime.MB {
			kmax = simtime.MB
		}
		if kmax > 10*simtime.MB {
			kmax = 10 * simtime.MB
		}
		out = append(out,
			red.Config{Kmin: kmin, Kmax: kmax, Pmax: 0.10},
			red.Config{Kmin: kmin, Kmax: kmax, Pmax: 0.50},
		)
	}
	return out
}

// RewardFunc maps average queue length (bytes) to the latency term D(L) of
// the reward r = ω1·T(R) + ω2·D(L) (equation 2).
type RewardFunc func(avgQueueBytes float64) float64

// StepReward is the paper's Figure-4 mapping: D(L) = 1 − n/10 with
// n = argmin_n E(n) >= L; fine-grained at shallow depths, coarse at large
// ones (Appendix .1, Design-2).
func StepReward(avgQueueBytes float64) float64 {
	n := LevelOf(int(math.Ceil(avgQueueBytes)))
	return 1 - float64(n)/float64(ELevels)
}

// LinearReward is the Appendix's Design-1 ablation: D(L) = 1 − L/Qmax with
// Qmax = 10MB, which the paper shows fails to differentiate actions.
func LinearReward(avgQueueBytes float64) float64 {
	d := 1 - avgQueueBytes/float64(10*simtime.MB)
	if d < 0 {
		return 0
	}
	return d
}

// Reward combines link utilization and the queue-length term with the
// operator weights (ω1=0.7, ω2=0.3 recommended for storage, §3.3).
func Reward(w1, w2, utilization float64, d float64) float64 {
	if utilization > 1 {
		utilization = 1
	}
	return w1*utilization + w2*d
}
