package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/accnet/acc/internal/acc"
	"github.com/accnet/acc/internal/exp"
	"github.com/accnet/acc/internal/obs"
	"github.com/accnet/acc/internal/rl"
)

// pretrainedEpisodes is exp.PretrainedModel's default budget, the one
// exp.Run uses for ACC arms.
const pretrainedEpisodes = 24

// websearch runs the fig12 experiment: ACC (deployed from the pre-trained
// model, fine-tuning online) against SECN1 and SECN2 under WebSearch
// Poisson traffic at 60-90% load on the 48-host leaf-spine, at scale 1.
// Smaller scales invert the ACC/SECN2 order, so they would measure a run
// that no longer reproduces the paper.
type websearch struct {
	seed   int64
	setups int
	model  *rl.MLP
	tables []*exp.Table // latest batch job's tables, for the headline
}

func newWebsearch(seed int64) *websearch { return &websearch{seed: seed} }

func (w *websearch) workUnit() string { return "events" }

// setup is the offline pre-training exp.Run needs before fig12. The first
// set-up goes through exp.PretrainedModel, which caches the model for the
// ACC arms; the others rerun the same recipe uncached through
// acc.TrainOffline and must reproduce the cached model bit for bit.
func (w *websearch) setup() ([]outcome, error) {
	w.setups++
	var m *rl.MLP
	if w.setups == 1 {
		m = exp.PretrainedModel(pretrainedEpisodes)
		w.model = m
	} else {
		m = acc.TrainOffline(offlineRecipe(pretrainedEpisodes, recipeSeed)).Eval
	}
	return []outcome{{name: "pretrained_model", digest: modelDigest(m)}}, nil
}

func (w *websearch) options(run *obs.Run) exp.Options {
	o := exp.DefaultOptions()
	o.Seed = w.seed
	o.Scale = 1
	o.Obs = run
	return o
}

func (w *websearch) iterate() (iteration, error) {
	// A run without a tracer still collects the engines' event totals for
	// the manifest; every trace hook stays on its nil fast path.
	run := &obs.Run{}
	u := readUsage()
	tables, err := exp.Run("fig12", w.options(run))
	d := u.since()
	if err != nil {
		return iteration{}, err
	}
	w.tables = tables
	man := run.Manifest()
	return iteration{
		wall: d.wall, cpu: d.cpu, alloc: d.alloc,
		work:     float64(man.EventsProcessed),
		outcomes: tableOutcomes(tables, man.EventsProcessed),
	}, nil
}

// tableOutcomes digests each rendered fig12 table, plus the run's total
// event count.
func tableOutcomes(tables []*exp.Table, events uint64) []outcome {
	outs := make([]outcome, 0, len(tables)+1)
	for i, t := range tables {
		h := fnv.New64a()
		io.WriteString(h, t.String())
		outs = append(outs, outcome{name: fmt.Sprintf("fig12_table_%d", i), digest: fmt.Sprintf("%016x", h.Sum64())})
	}
	return append(outs, outcome{name: "events", digest: strconv.FormatUint(events, 10)})
}

func (w *websearch) trace(untraced time.Duration, m map[string]float64) ([]outcome, error) {
	run := obs.NewRun(1024)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	u := readUsage()
	tables, err := exp.Run("fig12", w.options(run))
	d := u.since()
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	man := run.Manifest()
	events, packets := float64(man.EventsProcessed), float64(man.PacketsAlloced)
	setShares(m, shares)
	m["eventq.events"] = events
	m["eventq.ns_per_event"] = perUnit(shares.ns["eventq"], events)
	m["netsim.packets"] = packets
	m["netsim.ns_per_packet"] = perUnit(shares.ns["netsim"], packets)
	setKindCounts(m, man.TraceByKind)
	m["rl.forward_ns"] = forwardNS(w.model)
	m["runtime.gc_frac"] = d.gcFrac
	m["runtime.alloc_b_per_event"] = float64(d.alloc) / events
	m["trace_overhead"] = d.wall.Seconds() / untraced.Seconds()
	return tableOutcomes(tables, man.EventsProcessed), nil
}

// printHeadline sets fig12's 90%-load overall FCT beside the paper's.
func (w *websearch) printHeadline(out io.Writer) {
	if len(w.tables) == 0 {
		return
	}
	for _, row := range w.tables[0].Rows {
		if len(row) < 4 || row[0] != "90%" {
			continue
		}
		below := func(cell string) string {
			r, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil || r == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1f%%", 100*(1-1/r))
		}
		fmt.Fprintf(out, "headline (overall avg FCT, 90%% load): ACC %s below SECN1 (paper 5.8%%), %s below SECN2 (paper 16.6%%)\n",
			below(row[2]), below(row[3]))
	}
}
