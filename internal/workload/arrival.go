package workload

// Arrival processes for the multi-client workload engine (spec.go). Every
// client class draws its flow interarrival gaps from its own seeded RNG
// stream, so the generated trace is a pure function of (spec, seed) and two
// identically-seeded generators emit identical flow sequences — the property
// the record/replay pillar (trace.go) builds on.
//
// Three families cover the production mixes ServeGen-style specs describe:
// Poisson (memoryless open-loop load, the paper's §5.4 methodology), Gamma
// (burstier-than-Poisson arrivals when shape < 1, smoother when shape > 1),
// and Weibull (heavy-tailed ON/OFF-like gaps at shape < 1).

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/accnet/acc/internal/simtime"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
)

// Arrival draws successive interarrival gaps with a fixed mean. The zero
// value is invalid; build one with NewArrival.
type Arrival struct {
	process string
	mean    float64 // mean interarrival time in seconds
	shape   float64 // gamma/weibull shape parameter (1 = exponential)
}

// NewArrival validates and builds an interarrival sampler. rate is the mean
// arrival rate in flows per second; shape parameterizes the gamma and
// weibull families (ignored for poisson; shape 1 degenerates to poisson for
// both).
func NewArrival(process string, rate, shape float64) (Arrival, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Arrival{}, fmt.Errorf("workload: arrival rate %v must be a positive finite flows/sec", rate)
	}
	switch process {
	case ArrivalPoisson:
		shape = 1
	case ArrivalGamma, ArrivalWeibull:
		if shape == 0 {
			shape = 1
		}
		if shape <= 0 || math.IsNaN(shape) || math.IsInf(shape, 0) {
			return Arrival{}, fmt.Errorf("workload: %s shape %v must be a positive finite number", process, shape)
		}
	default:
		return Arrival{}, fmt.Errorf("workload: unknown arrival process %q (want %s, %s, or %s)",
			process, ArrivalPoisson, ArrivalGamma, ArrivalWeibull)
	}
	return Arrival{process: process, mean: 1 / rate, shape: shape}, nil
}

// Gap draws the next interarrival gap (always >= 1ns so time advances).
func (a Arrival) Gap(rng *rand.Rand) simtime.Duration {
	var x float64 // unit-mean draw
	switch a.process {
	case ArrivalGamma:
		// Gamma(k, θ) with mean kθ = 1: θ = 1/k.
		x = sampleGamma(rng, a.shape) / a.shape
	case ArrivalWeibull:
		// Weibull(k, λ) with mean λΓ(1+1/k) = 1: λ = 1/Γ(1+1/k).
		x = sampleWeibull(rng, a.shape) / math.Gamma(1+1/a.shape)
	default: // poisson
		x = rng.ExpFloat64()
	}
	d := simtime.Duration(x * a.mean * float64(simtime.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// sampleGamma draws Gamma(shape, 1) by Marsaglia–Tsang squeeze (shape >= 1)
// with the standard boost for shape < 1: Gamma(k) = Gamma(k+1)·U^(1/k).
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// sampleWeibull draws Weibull(shape, 1) by inverse transform.
func sampleWeibull(rng *rand.Rand, shape float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Pow(-math.Log(u), 1/shape)
}
