package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// pretrainEpisodes is the pretrain workload's input size: the first six
// episodes of the offline recipe per batch job (about 1.4 s and 2,002
// train steps, rl still ~77% of CPU), short enough for a dozen jobs per
// run, so the median rides out the host's second-to-second noise.
const pretrainEpisodes = 6

// recipeSeed is the seed acc.DefaultOfflineConfig gives the offline
// recipe. The pretrain workload keeps it whatever the benchmark seed: the
// recipe draws each episode's type and load from its seed, and the cost of
// eight (or 24) episodes varies up to 2x between seeds, which would swamp
// any change in the code being measured.
const recipeSeed = 1

// offlineRecipe is the §4.3 recipe exp.PretrainedModel trains with: the
// default star fabric, incast/Poisson/storage/all-reduce episodes and
// DCQCN, 10 ms of simulated time per episode.
func offlineRecipe(episodes int, seed int64) acc.OfflineConfig {
	cfg := acc.DefaultOfflineConfig()
	cfg.Episodes = episodes
	cfg.EpisodeTime = 10 * simtime.Millisecond
	cfg.Seed = seed
	return cfg
}

// pretrain times acc.TrainOffline: the training layer at full strength.
type pretrain struct{}

func (p *pretrain) workUnit() string { return "train_steps" }

// setup has no work of its own to time (TrainOffline builds each
// episode's fabric inside the measured job), so it times a fixed
// two-episode warm-up training that faults in the heap and code paths
// before the loop.
func (p *pretrain) setup() ([]outcome, error) {
	a := acc.TrainOffline(offlineRecipe(2, recipeSeed))
	return []outcome{{name: "warmup_model", digest: modelDigest(a.Eval)}}, nil
}

func (p *pretrain) iterate() (iteration, error) {
	u := readUsage()
	a := acc.TrainOffline(offlineRecipe(pretrainEpisodes, recipeSeed))
	d := u.since()
	return iteration{
		wall: d.wall, cpu: d.cpu, alloc: d.alloc,
		work:     float64(a.TrainSteps()),
		outcomes: agentOutcomes(a),
	}, nil
}

func agentOutcomes(a *rl.Agent) []outcome {
	return []outcome{
		{name: "model", digest: modelDigest(a.Eval)},
		{name: "train_steps", digest: fmt.Sprint(a.TrainSteps())},
	}
}

func (p *pretrain) trace(untraced time.Duration, m map[string]float64) ([]outcome, error) {
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	u := readUsage()
	a := acc.TrainOffline(offlineRecipe(pretrainEpisodes, recipeSeed))
	d := u.since()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	setShares(m, shares)
	m["rl.train_steps"] = float64(a.TrainSteps())
	m["runtime.gc_frac"] = d.gcFrac
	m["trace_overhead"] = d.wall.Seconds() / untraced.Seconds()

	trainUS, allocs, fwdNS, err := agentUnitCosts(a)
	if err != nil {
		return nil, err
	}
	m["rl.train_us"] = trainUS
	m["rl.train_allocs"] = allocs
	m["rl.forward_ns"] = fwdNS
	// Cross-check the profile against the unit cost: the training time the
	// unit cost predicts over the share of CPU the profile gave rl.
	if rlCPU := m["rl.self_frac"] * d.cpu.Seconds(); rlCPU > 0 {
		m["rl.crosscheck"] = float64(a.TrainSteps()) * trainUS / 1e6 / rlCPU
	}
	return agentOutcomes(a), nil
}

// crosscheckTolerance bounds rl.crosscheck: the unit-cost estimate of
// training time may differ from the profile's rl self time by this factor
// either way (the in-situ run pays cache misses and GC assists the
// isolated loop does not; acting, the rest of rl, is about 1% of it).
const crosscheckTolerance = 2.0

// agentUnitCosts times TrainStep on a copy of the agent (its networks,
// optimizer state and replay memory), so the checked outcome is
// untouched, and Forward on a clone of its evaluation network:
// microseconds per train step, heap allocations per train step, and
// nanoseconds per forward pass.
func agentUnitCosts(a *rl.Agent) (trainUS, allocs, fwdNS float64, err error) {
	cp, err := copyAgent(a)
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(1))
	const steps = 400
	u := readUsage()
	for i := 0; i < steps; i++ {
		cp.TrainStep(rng)
	}
	d := u.since()
	trainUS = d.wall.Seconds() * 1e6 / steps
	allocs = float64(d.mallocs) / steps
	return trainUS, allocs, forwardNS(a.Eval), nil
}

// copyAgent clones an agent through its snapshot codec.
func copyAgent(a *rl.Agent) (*rl.Agent, error) {
	w := codec.NewWriter()
	a.SaveState(w)
	r, err := codec.NewReader(w.Finish())
	if err != nil {
		return nil, err
	}
	cp := rl.NewAgent(a.Cfg, rand.New(rand.NewSource(0)))
	cp.RestoreState(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("copy agent: %w", err)
	}
	if cp.Memory.Len() < a.Cfg.BatchSize {
		return nil, fmt.Errorf("copy agent: replay holds %d transitions, fewer than a batch", cp.Memory.Len())
	}
	return cp, nil
}

// forwardNS times Forward on a clone of a model with an all-zero state.
func forwardNS(model *rl.MLP) float64 {
	m := model.Clone()
	x := make([]float64, m.Sizes[0])
	const passes = 20000
	start := time.Now()
	for i := 0; i < passes; i++ {
		m.Forward(x)
	}
	return float64(time.Since(start).Nanoseconds()) / passes
}

// modelDigest hashes a network's weights and biases bit for bit.
func modelDigest(m *rl.MLP) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, layer := range m.W {
		for _, row := range layer {
			for _, x := range row {
				put(x)
			}
		}
	}
	for _, layer := range m.B {
		for _, x := range layer {
			put(x)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
