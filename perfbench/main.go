// Command perfbench is the ACC reproduction's benchmark. It runs one
// workload as a closed loop of batch jobs for a fixed number of seconds,
// checks every outcome against reference digests, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer table) followed by
// one JSON result line.
//
//	perfbench --workload pretrain|websearch-acc|sweep-fork --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the metrics, the workloads and how
// to read the per-layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric, its unit and which direction is better; the
// lists below are the benchmark's contract with BENCHMARK.json (checked by
// TestMetricNames).
type metricDef struct {
	name, unit string
	better     direction
}

type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

// endToEnd are reported with -trace 0 on every workload. Throughput and
// allocation are per unit of the workload's work (train steps or
// simulator events), because a seeded input changes how much work a
// batch holds; wall_s and alloc_mb per batch are printed beside them.
// Memory is the median over jobs of each job's peak: the whole run's
// peak RSS, an extreme over every GC cycle of the run, is printed too but
// moved by up to 20% between runs of one input.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"work_per_s", "1/s", higher},
	{"alloc_per_work", "B", lower},
	{"peak_mem_mb", "MB", lower},
}

// perLayer are reported with -trace 1 on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"eventq.events", "count", lower},
	{"eventq.self_frac", "ratio", lower},
	{"eventq.ns_per_event", "ns", lower},
	{"netsim.packets", "count", lower},
	{"netsim.self_frac", "ratio", lower},
	{"netsim.ns_per_packet", "ns", lower},
	{"netsim.map_frac", "ratio", lower},
	{"netsim.ecn_marks", "count", lower},
	{"netsim.pfc_pauses", "count", lower},
	{"dcqcn.self_frac", "ratio", lower},
	{"dcqcn.cnps", "count", lower},
	{"dcqcn.rate_cuts", "count", lower},
	{"tcp.self_frac", "ratio", lower},
	{"tcp.rtos", "count", lower},
	{"acc.agent_steps", "count", lower},
	{"acc.wred_updates", "count", lower},
	{"acc.self_frac", "ratio", lower},
	{"rl.train_steps", "count", higher},
	{"rl.self_frac", "ratio", lower},
	{"rl.train_us", "us", lower},
	{"rl.forward_ns", "ns", lower},
	{"rl.train_allocs", "count", lower},
	{"rl.crosscheck", "ratio", lower},
	{"hybrid.self_frac", "ratio", lower},
	{"hybrid.analytic_frac", "ratio", higher},
	{"hybrid.demotions", "count", lower},
	{"hybrid.ticks", "count", lower},
	{"psim.windows", "count", lower},
	{"psim.self_frac", "ratio", lower},
	{"psim.busy_frac", "ratio", higher},
	{"psim.busy_frac_p1", "ratio", higher},
	{"psim.wall_ratio_p1_p2", "ratio", higher},
	{"psim.locality_speedup", "ratio", higher},
	{"psim.shard_speedup", "ratio", higher},
	{"snap.image_bytes", "B", lower},
	{"snap.snapshot_ms", "ms", lower},
	{"snap.fork_ms", "ms", lower},
	{"snap.fork_frac", "ratio", lower},
	{"runtime.self_frac", "ratio", lower},
	{"runtime.gc_frac", "ratio", lower},
	{"runtime.alloc_b_per_event", "B", lower},
	{"exp.cpu_per_wall", "ratio", higher},
	{"other_frac", "ratio", lower},
	{"trace_overhead", "ratio", lower},
}

// A run repeats its set-up at least minSetups times and until minSetupTime
// has been spent on it; setup_s is the median.
const (
	minSetups    = 3
	minSetupTime = time.Second
)

// minIters is the fewest batch jobs a run makes, so its medians have
// three jobs behind them even when one job outlasts --seconds.
const minIters = 3

// iteration is one measured batch job.
type iteration struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64  // heap bytes allocated
	peakMem  float64 // MB the Go runtime held at the job's peak
	work     float64 // workload work units (train steps, events, branches)
	outcomes []outcome
}

// workload is one benchmark input: set-up, a measured batch job, and a
// traced run that fills the per-layer table.
type workload interface {
	// workUnit names what work_per_s counts.
	workUnit() string
	// setup performs one set-up; the harness times several.
	setup() ([]outcome, error)
	// iterate runs one measured batch job.
	iterate() (iteration, error)
	// trace runs one batch job under the CPU profiler and obs counters and
	// returns the per-layer metrics it can observe (zero elsewhere). The
	// untraced median wall is passed for trace_overhead.
	trace(untraced time.Duration, layers map[string]float64) ([]outcome, error)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "pretrain":
		return &pretrain{}, nil
	case "websearch-acc":
		return newWebsearch(seed), nil
	case "sweep-fork":
		return newSweepFork(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pretrain, websearch-acc or sweep-fork)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pretrain, websearch-acc or sweep-fork")
	seed := fs.Int64("seed", 1, "workload seed; the program sees only inputs generated from it")
	seconds := fs.Float64("seconds", 20, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 = also run one traced batch job and print the per-layer table")
	record := fs.Bool("record", false, "print the reference digests for this seed as refs.json entries instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	// GOMAXPROCS = nproc: exp's arm workers and the psim shards are sized
	// to fit it.
	runtime.GOMAXPROCS(runtime.NumCPU())

	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	fp := currentFingerprint(*seed)
	if *record {
		return recordRefs(stdout, *name, *seed, w, fp)
	}
	g, err := newGate(*name, *seed, fp, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fp.print(stdout)

	var setups []float64
	var setupTime float64
	for len(setups) < minSetups || setupTime < minSetupTime.Seconds() {
		start := time.Now()
		outs, err := w.setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupTime += setups[len(setups)-1]
		g.check(outs)
	}

	var iters []iteration
	start := time.Now()
	for len(iters) < minIters || time.Since(start).Seconds() < *seconds {
		// Each job starts from a collected heap, so one job's garbage does
		// not set the next one's GC pacing or peak memory.
		runtime.GC()
		mem := startMemSampler()
		it, err := w.iterate()
		it.peakMem = mem.peakMB()
		if err != nil {
			return err
		}
		iters = append(iters, it)
		g.check(it.outcomes)
	}

	if sw, ok := w.(*sweepFork); ok {
		outs, err := sw.coldCheck(false)
		if err != nil {
			return err
		}
		g.check(outs)
	}
	if ws, ok := w.(*websearch); ok {
		ws.printHeadline(stdout)
	}

	n := len(iters)
	walls, allocs, rates, allocPer, mems := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var cpu, wall float64
	for i, it := range iters {
		walls[i] = it.wall.Seconds()
		allocs[i] = float64(it.alloc) / 1e6
		rates[i] = it.work / it.wall.Seconds()
		allocPer[i] = float64(it.alloc) / it.work
		mems[i] = it.peakMem
		cpu += it.cpu.Seconds()
		wall += it.wall.Seconds()
	}
	medWall := median(walls)

	res := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		vals := map[string]float64{
			"setup_s":        median(setups),
			"work_per_s":     median(rates),
			"alloc_per_work": median(allocPer),
			"peak_mem_mb":    median(mems),
		}
		fmt.Fprintf(stdout, "%d set-ups, %d batch jobs in %.1fs; work unit: %s\n", len(setups), n, time.Since(start).Seconds(), w.workUnit())
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
			fmt.Fprintf(stdout, "  %-22s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
		// Per-batch figures and the workload's own throughput name.
		fmt.Fprintf(stdout, "  %-22s %14.6g s (median batch job)\n", "wall_s", medWall)
		fmt.Fprintf(stdout, "  %-22s %14.6g MB (median batch job)\n", "alloc_mb", median(allocs))
		fmt.Fprintf(stdout, "  %-22s %14.6g MB (whole run)\n", "peak_rss_mb", peakRSSMB())
		fmt.Fprintf(stdout, "  %-22s %14.6g 1/s\n", w.workUnit()+"_per_s", median(rates))
		if sw, ok := w.(*sweepFork); ok {
			fmt.Fprintf(stdout, "  %-22s %14.6g 1/s\n", "scenarios_per_s", float64(len(sw.branches))/medWall)
		}
	} else {
		layers := map[string]float64{}
		for _, d := range perLayer {
			layers[d.name] = 0
		}
		outs, err := w.trace(time.Duration(medWall*float64(time.Second)), layers)
		if err != nil {
			return err
		}
		g.check(outs)
		if v := layers["rl.crosscheck"]; v != 0 {
			g.expect(fmt.Sprintf("rl.crosscheck %.3f within a factor %g", v, crosscheckTolerance),
				v >= 1/crosscheckTolerance && v <= crosscheckTolerance)
		}
		layers["exp.cpu_per_wall"] = cpu / wall
		printLayers(stdout, layers)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
		}
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Correct = g.failed == 0 && g.attempted > 0
	fmt.Fprintf(stdout, "  %-22s %14.6g ratio (%d of %d outcomes)\n", "failed_frac",
		float64(g.failed)/float64(max(g.attempted, 1)), g.failed, g.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func printLayers(w io.Writer, layers map[string]float64) {
	fmt.Fprintln(w, "per-layer table:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, layers[d.name], d.unit)
	}
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
