package acc

import (
	"testing"
	"testing/quick"

	"github.com/accnet/acc/internal/simtime"
)

func TestEDiscretization(t *testing.T) {
	// Equation 1: E(n) = 20·2^n KB.
	want := []int{20, 40, 80, 160, 320, 640, 1280, 2560, 5120, 10240}
	for n, kb := range want {
		if got := E(n); got != kb*simtime.KB {
			t.Errorf("E(%d) = %d, want %dKB", n, got, kb)
		}
	}
	// Clamping.
	if E(-1) != E(0) || E(99) != E(9) {
		t.Error("E must clamp out-of-range n")
	}
}

func TestLevelOf(t *testing.T) {
	cases := []struct {
		bytes int
		want  int
	}{
		{0, 0},
		{1, 0},
		{20 * simtime.KB, 0},
		{20*simtime.KB + 1, 1},
		{100 * simtime.KB, 3}, // E(3)=160KB is the first >= 100KB
		{10240 * simtime.KB, 9},
		{11 * simtime.MB, ELevels}, // off the scale
	}
	for _, c := range cases {
		if got := LevelOf(c.bytes); got != c.want {
			t.Errorf("LevelOf(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestLevelOfIsInverseOfE(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n) % ELevels
		return LevelOf(E(k)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepRewardShape(t *testing.T) {
	// Figure 4: stepwise decreasing, 1.0 at empty queue, 0 beyond E(9).
	if StepReward(0) != 1 {
		t.Fatalf("D(0) = %v, want 1", StepReward(0))
	}
	if got := StepReward(float64(30 * simtime.KB)); got != 0.9 { // level 1
		t.Fatalf("D(30KB) = %v, want 0.9", got)
	}
	if got := StepReward(float64(20 * simtime.MB)); got != 0 {
		t.Fatalf("D(20MB) = %v, want 0", got)
	}
	// Monotone nonincreasing.
	prev := 2.0
	for q := 0; q <= 12*simtime.MB; q += 64 * simtime.KB {
		d := StepReward(float64(q))
		if d > prev {
			t.Fatalf("StepReward not monotone at %d: %v > %v", q, d, prev)
		}
		prev = d
	}
}

func TestLinearRewardSimilarForNearbyQueues(t *testing.T) {
	// The appendix's critique: linear D barely separates small queues.
	a := LinearReward(float64(20 * simtime.KB))
	b := LinearReward(float64(320 * simtime.KB))
	if a-b > 0.05 {
		t.Fatalf("linear reward separates small queues too much: %v vs %v", a, b)
	}
	// Whereas the step reward separates them strongly.
	sa := StepReward(float64(20 * simtime.KB))
	sb := StepReward(float64(320 * simtime.KB))
	if sa-sb < 0.3 {
		t.Fatalf("step reward fails to separate small queues: %v vs %v", sa, sb)
	}
}

func TestDefaultTemplate(t *testing.T) {
	tpl := DefaultTemplate()
	if len(tpl) != 20 {
		t.Fatalf("template size %d, want 20 (matches the paper's 20-node output layer)", len(tpl))
	}
	for i, c := range tpl {
		if err := c.Validate(); err != nil {
			t.Errorf("template[%d]: %v", i, err)
		}
		if c.Kmax > 10*simtime.MB {
			t.Errorf("template[%d] Kmax %d above the 10MB buffer bound", i, c.Kmax)
		}
	}
}

func TestReducedTemplateSize(t *testing.T) {
	r := ReducedTemplate()
	if len(r) != 10 {
		t.Fatalf("reduced template size %d, want 10", len(r))
	}
	if n := len(r) * len(r); n != 100 {
		t.Fatalf("joint action space %d, want 100 (\"hundreds of actions\")", n)
	}
}

func TestRewardWeights(t *testing.T) {
	// Full utilization, empty queue: reward = w1+w2 = 1.
	if r := Reward(0.7, 0.3, 1.0, 1.0); r != 1 {
		t.Fatalf("reward %v, want 1", r)
	}
	// Utilization clamps at 1.
	if r := Reward(0.7, 0.3, 1.5, 0); r != 0.7 {
		t.Fatalf("reward %v, want 0.7", r)
	}
}
