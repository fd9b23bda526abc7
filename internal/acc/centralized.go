package acc

import (
	"math/rand"

	"github.com/accnet/acc/internal/netsim"
	"github.com/accnet/acc/internal/red"
	"github.com/accnet/acc/internal/rl"
	"github.com/accnet/acc/internal/simtime"
)

// CentralizedConfig parameterizes the C-ACC baseline of §5.4: one controller
// collects aggregated state from every switch, picks a per-layer ECN setting
// (the paper's simplification "apply the same setting for all uplink ports
// or downlink ports because of the symmetric topology"), and actuates it
// only after a control-loop delay — the centralized design's fundamental
// handicap (§3.2).
type CentralizedConfig struct {
	Period       simtime.Duration // controller decision interval
	ControlDelay simtime.Duration // collect + inference + actuation latency
	HistoryK     int

	W1, W2 float64
	Reward RewardFunc

	// Template is the reduced per-layer action set ("we sampled some of the
	// actions to further reduce action space ... to hundreds of actions").
	Template []red.Config

	TrainOnline bool
	Agent       rl.AgentConfig
}

// ReducedTemplate samples the 20-entry template down to 10 entries (5 Kmin
// levels × 2 Pmax), giving 10² = 100 joint leaf/spine actions.
func ReducedTemplate() []red.Config {
	full := DefaultTemplate()
	var out []red.Config
	for n := 0; n < ELevels; n += 2 {
		out = append(out, full[2*n], full[2*n+1])
	}
	return out
}

// DefaultCentralizedConfig mirrors the §3.2 discussion: a multi-millisecond
// control loop versus the distributed design's microseconds.
func DefaultCentralizedConfig() CentralizedConfig {
	return CentralizedConfig{
		Period:       1 * simtime.Millisecond,
		ControlDelay: 2 * simtime.Millisecond,
		HistoryK:     3,
		W1:           0.7,
		W2:           0.3,
		Reward:       StepReward,
		Template:     ReducedTemplate(),
		TrainOnline:  true,
	}
}

// layerObs is the per-tick aggregate telemetry of one switch layer.
type layerObs struct {
	qLevel     float64 // max queue-length level across the layer, /10
	util       float64 // mean utilization of active queues
	markedRate float64
	actionNorm float64
}

// Centralized is the C-ACC controller.
type Centralized struct {
	Net    *netsim.Network
	Agent  *rl.Agent
	Cfg    CentralizedConfig
	Leaves []*netsim.Switch
	Spines []*netsim.Switch

	rng *rand.Rand

	layers [][]*netsim.Switch // [leafLayer, spineLayer]
	// Per-layer current action index into Template.
	layerAction []int
	// Telemetry deltas per queue: previous counters.
	lastTx, lastMarked map[*netsim.EgressQueue]uint64
	lastInteg          map[*netsim.EgressQueue]float64

	hist       [][]float64
	prevState  []float64
	prevAction int
	havePrev   bool

	Inferences uint64
	stopped    bool
}

// NewCentralized deploys the centralized controller over the fabric layers.
func NewCentralized(net *netsim.Network, leaves, spines []*netsim.Switch, cfg CentralizedConfig) *Centralized {
	if cfg.Period <= 0 {
		cfg.Period = simtime.Millisecond
	}
	if cfg.HistoryK <= 0 {
		cfg.HistoryK = 3
	}
	if cfg.Reward == nil {
		cfg.Reward = StepReward
	}
	if len(cfg.Template) == 0 {
		cfg.Template = ReducedTemplate()
	}
	if cfg.W1 == 0 && cfg.W2 == 0 {
		cfg.W1, cfg.W2 = 0.7, 0.3
	}
	c := &Centralized{
		Net:        net,
		Cfg:        cfg,
		Leaves:     leaves,
		Spines:     spines,
		rng:        rand.New(rand.NewSource(net.Rng.Int63())),
		layers:     [][]*netsim.Switch{leaves, spines},
		lastTx:     make(map[*netsim.EgressQueue]uint64),
		lastMarked: make(map[*netsim.EgressQueue]uint64),
		lastInteg:  make(map[*netsim.EgressQueue]float64),
	}
	c.layerAction = make([]int, len(c.layers))
	nActions := len(cfg.Template) * len(cfg.Template)
	ac := cfg.Agent
	if ac.StateDim == 0 {
		ac = rl.DefaultAgentConfig(c.stateDim(), nActions)
		// A joint action space of ~100 needs a wider network and slower
		// exploration decay to cover it.
		ac.Hidden = []int{40, 64, 64}
	}
	c.Agent = rl.NewAgent(ac, net.Rng)
	c.schedule()
	return c
}

func (c *Centralized) stateDim() int {
	return len(c.layers) * FeaturesPerSlot * c.Cfg.HistoryK
}

// Stop halts the control loop.
func (c *Centralized) Stop() { c.stopped = true }

func (c *Centralized) schedule() {
	c.Net.Q.After(c.Cfg.Period, func() {
		if c.stopped {
			return
		}
		c.tick()
		c.schedule()
	})
}

// observeLayer aggregates one layer's telemetry and per-queue rewards.
func (c *Centralized) observeLayer(li int) (layerObs, float64, int) {
	var obs layerObs
	var rewardSum float64
	var active int
	window := c.Cfg.Period.Seconds()
	count := 0
	for _, sw := range c.layers[li] {
		for _, p := range sw.Ports {
			for _, q := range p.Queues {
				if !q.ECNEnabled {
					continue
				}
				count++
				txDelta := q.TxBytes - c.lastTx[q]
				markDelta := q.TxMarkedBytes - c.lastMarked[q]
				integ := q.ByteTimeIntegral()
				integDelta := integ - c.lastInteg[q]
				c.lastTx[q] = q.TxBytes
				c.lastMarked[q] = q.TxMarkedBytes
				c.lastInteg[q] = integ

				util := clamp01(float64(txDelta) * 8 / (float64(p.Bandwidth) * window))
				marked := clamp01(float64(markDelta) * 8 / (float64(p.Bandwidth) * window))
				avgQ := integDelta / window

				if lv := float64(LevelOf(q.Bytes())) / float64(ELevels); lv > obs.qLevel {
					obs.qLevel = lv
				}
				if txDelta > 0 {
					active++
					obs.util += util
					obs.markedRate += marked
					rewardSum += Reward(c.Cfg.W1, c.Cfg.W2, util, c.Cfg.Reward(avgQ))
				}
			}
		}
	}
	if active > 0 {
		obs.util /= float64(active)
		obs.markedRate /= float64(active)
	}
	obs.actionNorm = float64(c.layerAction[li]) / float64(len(c.Cfg.Template)-1)
	return obs, rewardSum, active
}

func (c *Centralized) tick() {
	slot := make([]float64, 0, len(c.layers)*FeaturesPerSlot)
	var rewardSum float64
	var active int
	for li := range c.layers {
		obs, rs, act := c.observeLayer(li)
		slot = append(slot, obs.qLevel, obs.util, obs.markedRate, obs.actionNorm)
		rewardSum += rs
		active += act
	}
	reward := 0.5 // neutral when the fabric is silent
	if active > 0 {
		reward = rewardSum / float64(active)
	}

	c.hist = append(c.hist, slot)
	if len(c.hist) > c.Cfg.HistoryK {
		c.hist = c.hist[1:]
	}
	state := make([]float64, 0, c.stateDim())
	for i := len(c.hist); i < c.Cfg.HistoryK; i++ {
		state = append(state, make([]float64, len(c.layers)*FeaturesPerSlot)...)
	}
	for _, s := range c.hist {
		state = append(state, s...)
	}

	if c.havePrev {
		c.Agent.Observe(rl.Transition{State: c.prevState, Action: c.prevAction, Reward: reward, Next: state})
		if c.Cfg.TrainOnline {
			c.Agent.TrainStep(c.rng)
		}
	}

	action := c.Agent.Act(state, c.rng)
	c.Inferences++
	c.prevState, c.prevAction, c.havePrev = state, action, true

	// The centralized design's Achilles heel: actuation lands only after the
	// control-loop delay (§3.2 "long latency for collecting network state
	// and updating ECN configuration").
	leafIdx := action / len(c.Cfg.Template)
	spineIdx := action % len(c.Cfg.Template)
	c.Net.Q.After(c.Cfg.ControlDelay, func() {
		if c.stopped {
			return
		}
		c.applyLayer(0, leafIdx)
		c.applyLayer(1, spineIdx)
	})
}

func (c *Centralized) applyLayer(li, tmplIdx int) {
	c.layerAction[li] = tmplIdx
	for _, sw := range c.layers[li] {
		sw.SetRED(c.Cfg.Template[tmplIdx])
	}
}
