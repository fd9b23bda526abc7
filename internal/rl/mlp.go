// Package rl is the deep-reinforcement-learning substrate ACC builds on: a
// feed-forward neural network trained by backpropagation (Adam), a
// uniform experience-replay memory, and DQN / Double-DQN agents with
// ε-greedy exploration and periodic target-network synchronization — the
// algorithmic stack of the paper's §3.4.
//
// Everything is pure Go over float64 slices; no external tensor library is
// used (or available) — the paper's network is four small dense layers
// ({20,40,40,20} nodes, §6 "Resource Consumption"), for which this is ample.
package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with ReLU hidden activations and a
// linear output layer (Q-values are unbounded).
//
// An MLP owns per-instance scratch buffers so Forward and TrainBatch
// allocate nothing in steady state: the slice returned by Forward is valid
// only until the next Forward/TrainBatch call on the same instance, and an
// MLP must not be used from multiple goroutines concurrently (each parallel
// experiment run builds its own agents; shared pre-trained models are only
// read via CopyFrom).
type MLP struct {
	Sizes []int         // layer widths, input first
	W     [][][]float64 // W[l][out][in]
	B     [][]float64   // B[l][out]

	// Adam optimizer state (not serialized).
	mW, vW [][][]float64
	mB, vB [][]float64
	adamT  int

	// Scratch buffers (not serialized; rebuilt alongside the optimizer
	// state). fwd holds per-layer activations for Forward; acts/delta back
	// the forward trace and backprop deltas; gradW/gradB accumulate batch
	// gradients, zeroed at the start of each gradients call.
	fwd   [][]float64
	acts  [][]float64 // acts[0] aliases the caller's input per trace
	delta [][]float64
	gradW [][][]float64
	gradB [][]float64
}

// NewMLP builds a network with He-initialized weights.
func NewMLP(sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("rl: MLP needs at least input and output layers")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in))
		wl := make([][]float64, out)
		for o := range wl {
			row := make([]float64, in)
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
			wl[o] = row
		}
		m.W = append(m.W, wl)
		m.B = append(m.B, make([]float64, out))
	}
	m.initAdam()
	return m
}

func (m *MLP) initAdam() {
	m.mW, m.vW = zerosLike3(m.W), zerosLike3(m.W)
	m.mB, m.vB = zerosLike2(m.B), zerosLike2(m.B)
	m.adamT = 0
	m.initScratch()
}

func (m *MLP) initScratch() {
	m.fwd = zerosLike2(m.B)
	m.acts = make([][]float64, len(m.W)+1)
	for l := range m.W {
		m.acts[l+1] = make([]float64, len(m.B[l]))
	}
	m.delta = zerosLike2(m.B)
	m.gradW = zerosLike3(m.W)
	m.gradB = zerosLike2(m.B)
}

func zerosLike3(w [][][]float64) [][][]float64 {
	out := make([][][]float64, len(w))
	for l := range w {
		out[l] = make([][]float64, len(w[l]))
		for o := range w[l] {
			out[l][o] = make([]float64, len(w[l][o]))
		}
	}
	return out
}

func zerosLike2(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for l := range b {
		out[l] = make([]float64, len(b[l]))
	}
	return out
}

// NumParams returns the number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		for o := range m.W[l] {
			n += len(m.W[l][o])
		}
		n += len(m.B[l])
	}
	return n
}

// ForwardFlops estimates multiply-accumulate operations for one inference.
func (m *MLP) ForwardFlops() int {
	n := 0
	for l := 0; l < len(m.Sizes)-1; l++ {
		n += 2 * m.Sizes[l] * m.Sizes[l+1]
	}
	return n
}

// Forward computes the network output for input x into the instance's
// scratch buffers. The returned slice is owned by the MLP and only valid
// until the next Forward/TrainBatch call; callers that need the values
// longer must copy them.
func (m *MLP) Forward(x []float64) []float64 {
	a := x
	for l := range m.W {
		m.layerForward(l, a, m.fwd[l], l < len(m.W)-1)
		a = m.fwd[l]
	}
	return a
}

func (m *MLP) layerForward(l int, in, out []float64, relu bool) {
	for o, row := range m.W[l] {
		s := m.B[l][o]
		for i, w := range row {
			s += w * in[i]
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

// forwardTrace runs a forward pass keeping activations per layer for
// backprop in the acts scratch. acts[0] aliases the input; acts[len(W)] is
// the output.
func (m *MLP) forwardTrace(x []float64) [][]float64 {
	m.acts[0] = x
	for l := range m.W {
		m.layerForward(l, m.acts[l], m.acts[l+1], l < len(m.W)-1)
	}
	return m.acts
}

// Sample is one supervised regression target on a single output unit —
// exactly the shape Q-learning needs (fit Q(s,a) for the taken action only).
type Sample struct {
	X      []float64
	Action int
	Target float64
}

// TrainBatch performs one Adam step on the mean squared error of the batch
// and returns the batch loss.
func (m *MLP) TrainBatch(batch []Sample, lr float64) float64 {
	if len(batch) == 0 {
		return 0
	}
	gW, gB, loss := m.gradients(batch)
	m.adamStep(gW, gB, lr)
	return loss
}

// gradients computes mean-squared-error gradients over a batch, the input
// to the Adam step. The returned slices are the instance's
// gradW/gradB scratch, zeroed here and valid until the next gradients call.
func (m *MLP) gradients(batch []Sample) ([][][]float64, [][]float64, float64) {
	gW, gB := m.gradW, m.gradB
	for l := range gW {
		for o := range gW[l] {
			clear(gW[l][o])
		}
		clear(gB[l])
	}
	var loss float64
	inv := 1 / float64(len(batch))

	for _, s := range batch {
		acts := m.forwardTrace(s.X)
		out := acts[len(acts)-1]
		err := out[s.Action] - s.Target
		loss += err * err

		// delta[l] backs layer l's output deltas. The backprop below reads
		// the layer's input activations from acts[l], which the delta write
		// for layer l-1 would clobber if they shared storage — they don't:
		// delta is its own scratch.
		delta := m.delta[len(m.W)-1]
		clear(delta)
		delta[s.Action] = 2 * err * inv

		for l := len(m.W) - 1; l >= 0; l-- {
			in := acts[l]
			var prev []float64
			if l > 0 {
				prev = m.delta[l-1]
				clear(prev)
			}
			for o, row := range m.W[l] {
				d := delta[o]
				if d == 0 {
					continue
				}
				gB[l][o] += d
				grow := gW[l][o]
				for i, w := range row {
					grow[i] += d * in[i]
					if l > 0 {
						prev[i] += d * w
					}
				}
			}
			if l > 0 {
				for i, a := range in {
					if a <= 0 {
						prev[i] = 0
					}
				}
				delta = prev
			}
		}
	}
	return gW, gB, loss * inv
}

// adamStep applies the Adam update with standard hyperparameters.
func (m *MLP) adamStep(gW [][][]float64, gB [][]float64, lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	m.adamT++
	bc1 := 1 - math.Pow(beta1, float64(m.adamT))
	bc2 := 1 - math.Pow(beta2, float64(m.adamT))
	for l := range m.W {
		for o := range m.W[l] {
			for i := range m.W[l][o] {
				g := gW[l][o][i]
				m.mW[l][o][i] = beta1*m.mW[l][o][i] + (1-beta1)*g
				m.vW[l][o][i] = beta2*m.vW[l][o][i] + (1-beta2)*g*g
				m.W[l][o][i] -= lr * (m.mW[l][o][i] / bc1) / (math.Sqrt(m.vW[l][o][i]/bc2) + eps)
			}
			g := gB[l][o]
			m.mB[l][o] = beta1*m.mB[l][o] + (1-beta1)*g
			m.vB[l][o] = beta2*m.vB[l][o] + (1-beta2)*g*g
			m.B[l][o] -= lr * (m.mB[l][o] / bc1) / (math.Sqrt(m.vB[l][o]/bc2) + eps)
		}
	}
}

// Clone returns a deep copy (optimizer state reset).
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	c.W = zerosLike3(m.W)
	c.B = zerosLike2(m.B)
	c.CopyFrom(m)
	c.initAdam()
	return c
}

// CopyFrom copies weights from other (shapes must match).
func (m *MLP) CopyFrom(other *MLP) {
	for l := range m.W {
		for o := range m.W[l] {
			copy(m.W[l][o], other.W[l][o])
		}
		copy(m.B[l], other.B[l])
	}
}

// mlpJSON is the serialized form.
type mlpJSON struct {
	Sizes []int         `json:"sizes"`
	W     [][][]float64 `json:"w"`
	B     [][]float64   `json:"b"`
}

// MarshalJSON serializes the architecture and weights.
func (m *MLP) MarshalJSON() ([]byte, error) {
	return json.Marshal(mlpJSON{Sizes: m.Sizes, W: m.W, B: m.B})
}

// UnmarshalJSON restores a network saved with MarshalJSON.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var j mlpJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Sizes) < 2 || len(j.W) != len(j.Sizes)-1 || len(j.B) != len(j.W) {
		return fmt.Errorf("rl: malformed MLP JSON")
	}
	m.Sizes, m.W, m.B = j.Sizes, j.W, j.B
	m.initAdam()
	return nil
}

// Argmax returns the index of the largest value (first on ties).
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
