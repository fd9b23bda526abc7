package rl

import (
	"github.com/accnet/acc/internal/snap/codec"
)

// Snapshot support: unlike the JSON model files (weights only, for
// deployment), snapshots must resume training bit-identically, so they
// carry the full optimizer state (Adam first/second moments and step
// count), the exploration schedule, and the replay memory contents.
//
// Restore overlays an agent rebuilt from the same AgentConfig: network
// shapes and the replay capacity are construction config, recorded in the
// stream only so a restore can check them against the rebuilt agent.

// Sync saves or restores the network's weights and complete Adam state.
// A restore overlays a network of the same shape and rebuilds its scratch
// buffers.
func (m *MLP) Sync(s *codec.Stream) {
	s.Tag("mlp")
	syncDim(s, len(m.Sizes))
	for _, n := range m.Sizes {
		syncDim(s, n)
	}
	sync3(s, m.W)
	sync2(s, m.B)
	sync3(s, m.mW)
	sync3(s, m.vW)
	sync2(s, m.mB)
	sync2(s, m.vB)
	codec.Int(s, &m.adamT)
	if s.Loading() {
		m.initScratch()
	}
}

// syncDim syncs one dimension of a fixed-shape overlay: on restore the
// recorded value must equal the rebuilt one.
func syncDim(s *codec.Stream, have int) {
	got := have
	codec.Int(s, &got)
	if s.Err() == nil && got != have {
		s.Fail("rl: snapshot dimension %d, rebuilt agent has %d", got, have)
	}
}

func sync3(s *codec.Stream, x [][][]float64) {
	syncDim(s, len(x))
	for _, l := range x {
		sync2(s, l)
	}
}

func sync2(s *codec.Stream, x [][]float64) {
	syncDim(s, len(x))
	for i := range x {
		n := len(x[i])
		codec.Floats(s, &x[i])
		if s.Err() == nil && len(x[i]) != n {
			s.Fail("rl: snapshot row of %d weights, rebuilt agent has %d", len(x[i]), n)
		}
	}
}

// Sync saves or restores one transition.
func (t *Transition) Sync(s *codec.Stream) {
	codec.Floats(s, &t.State)
	codec.Int(s, &t.Action)
	codec.Float(s, &t.Reward)
	codec.Floats(s, &t.Next)
	s.Bool(&t.Terminal)
}

// Sync saves or restores the replay memory's full contents and ring
// position.
func (rp *Replay) Sync(s *codec.Stream) {
	s.Tag("replay")
	syncDim(s, rp.cap)
	codec.Int(s, &rp.next)
	s.Bool(&rp.full)
	n := len(rp.buf)
	s.Len(&n, 1+1+8+1+1)
	if s.Loading() {
		if n > rp.cap {
			s.Fail("rl: replay length %d exceeds capacity %d", n, rp.cap)
			n = 0
		}
		rp.buf = make([]Transition, n, rp.cap)
	}
	for i := range rp.buf {
		rp.buf[i].Sync(s)
	}
}

// Sync saves or restores the agent's networks, optimizer state,
// exploration schedule, and replay memory. Cfg is construction-time
// configuration and is not serialized — the restoring side rebuilds the
// agent from the same scenario and then overlays this state.
func (a *Agent) Sync(s *codec.Stream) {
	s.Tag("agent")
	a.Eval.Sync(s)
	a.Target.Sync(s)
	a.Memory.Sync(s)
	codec.Float(s, &a.eps)
	codec.Int(s, &a.trainSteps)
}

// SaveState and RestoreState are Sync under the names perfbench's agent
// clone calls; new code calls Sync.
func (a *Agent) SaveState(s *codec.Stream)    { a.Sync(s) }
func (a *Agent) RestoreState(s *codec.Stream) { a.Sync(s) }
