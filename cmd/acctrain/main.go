// Command acctrain runs ACC's offline pre-training (§4.3) over the
// synthetic workload suite and saves the resulting model, ready to be
// installed on switches (loaded by the library or by accsim runs).
//
// Usage:
//
//	acctrain -o models/pretrained.json -episodes 50
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/simtime"
)

func main() {
	var (
		out      = flag.String("o", "acc-model.json", "output model path")
		episodes = flag.Int("episodes", 30, "training episodes")
		epTime   = flag.Duration("episode-time", 10*time.Millisecond, "virtual time per episode")
		seed     = flag.Int64("seed", 1, "training seed")
		senders  = flag.Int("max-senders", 12, "max incast senders per episode")
		flows    = flag.Int("max-flows", 16, "max flows per sender per episode")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	cfg := acc.DefaultOfflineConfig()
	cfg.Episodes = *episodes
	cfg.EpisodeTime = simtime.Duration(epTime.Nanoseconds())
	cfg.Seed = *seed
	cfg.MaxSenders = *senders
	cfg.MaxFlowsPerSender = *flows
	if !*quiet {
		cfg.Progress = func(ep int, eps float64) {
			fmt.Printf("\repisode %d/%d  epsilon=%.3f", ep+1, cfg.Episodes, eps)
		}
	}

	t0 := time.Now()
	agent := acc.TrainOffline(cfg)
	if !*quiet {
		fmt.Println()
	}

	desc := fmt.Sprintf("ACC offline model: %d episodes x %v, seed %d, trained %s",
		cfg.Episodes, cfg.EpisodeTime, cfg.Seed, time.Now().UTC().Format(time.RFC3339))
	if err := acc.SaveModel(*out, desc, agent, acc.DefaultConfig()); err != nil {
		fmt.Fprintln(os.Stderr, "acctrain:", err)
		os.Exit(1)
	}
	// Read-back validation: a model file that cannot be loaded should fail
	// here, at write time, not on the switch that installs it.
	model, err := acc.LoadModel(*out)
	if err == nil && model.NumParams() != agent.Eval.NumParams() {
		err = fmt.Errorf("%s holds %d parameters, trained network has %d", *out, model.NumParams(), agent.Eval.NumParams())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acctrain: reading back model:", err)
		os.Exit(1)
	}
	fmt.Printf("trained %d episodes in %v; %d transitions in memory; model -> %s\n",
		cfg.Episodes, time.Since(t0).Round(time.Millisecond), agent.Memory.Len(), *out)
}
