// Command perfbench is the Sisyphus benchmark. It drives the public entry
// points — the sisyphusd handler (serve.Server.Handler) and the sweep
// runner (sweep.Run) — under one of three named workloads, checks every
// answer, and prints its metrics: one line per metric with its unit, then,
// as the last line of standard output, one JSON object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a run that records
// the program's spans and counters and also writes them as Chrome
// trace-event JSON. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload query-cold --seed 1 --seconds 25 --trace 0
//
// A failed check makes the command exit 1 after printing its result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"query-cold": runQueryCold,
	"serve-warm": runServeWarm,
	"sweep":      runSweep,
}

// config is one benchmark run's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// clients bounds the load: client connections, closed-loop callers and
	// pool workers are all at most this many.
	clients int
	size    size
	// tracePath is where a traced run writes its Chrome trace; "" skips it.
	tracePath string
	// log receives failure details.
	log io.Writer
}

// size holds the input sizes; the smoke test shrinks them.
type size struct {
	// queryHours is the simulated horizon of a query-cold request.
	queryHours int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// gridExperiments and gridSeeds shape the sweep grid.
	gridExperiments []string
	gridSeeds       int
}

// fullSize is the benchmark as BENCHMARK.json describes it.
func fullSize() size {
	return size{
		queryHours:      240,
		setupReps:       3,
		gridExperiments: []string{"table1", "did", "exposure", "rootcause"},
		gridSeeds:       4,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "benchmark seed; every input is derived from it")
	seconds := fs.Int("seconds", 10, "measured duration in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		clients: runtime.NumCPU(),
		size:    fullSize(),
		log:     stderr,
	}
	if cfg.trace {
		cfg.tracePath = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
	}
	warmCPU(cfg.clients, cpuWarmUp)
	out, err := drive(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		fmt.Fprintf(stderr, "perfbench: trace written to %s\n", cfg.tracePath)
	}
	return out.print(stdout, *name, cfg.trace)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number. A metric with a note has no value: the
// note says why (too few samples for the percentile, for instance).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type metricList []metric

func (l *metricList) add(name string, value float64, unit string) {
	*l = append(*l, metric{name: name, value: value, unit: unit})
}

// none records a metric that has no value, and why.
func (l *metricList) none(name, unit, note string) {
	*l = append(*l, metric{name: name, unit: unit, note: note})
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	// e2e are the end-to-end metrics BENCHMARK.json lists, which every
	// workload reports; extra are the end-to-end metrics only some
	// workloads have, printed but not in the JSON line.
	e2e, extra metricList
	// layers are the per-layer metrics of a traced run.
	layers metricList
}

// print writes one line per metric and the JSON result, and returns the
// exit code: 1 when any check failed.
func (o *outcome) print(w io.Writer, workload string, traced bool) int {
	lines := append(append(metricList(nil), o.e2e...), o.extra...)
	if traced {
		lines = o.layers
	}
	failRatio := float64(o.failed) / float64(max(o.attempted, 1))
	lines.add("fail_ratio", failRatio, "ratio")
	for _, m := range lines {
		if m.note != "" {
			fmt.Fprintf(w, "%-12s %-40s n/a  (%s)\n", workload, m.name, m.note)
			continue
		}
		fmt.Fprintf(w, "%-12s %-40s %.6g %s\n", workload, m.name, m.value, m.unit)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]jsonMetric{}}
	gated := o.e2e
	if traced {
		gated = o.layers
	}
	for _, m := range gated {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run whose every operation failed has no median; its
			// result already says so, and JSON has no NaN.
			v = 0
		}
		res.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuWarmUp is how long the cores spin before set-up. On the reference
// machine, a virtual machine, a process that starts on idle cores runs at
// about half speed for its first two seconds; without the spin that
// slow start lands in setup_s and the first requests.
const cpuWarmUp = 2500 * time.Millisecond

// warmCPU keeps n cores busy for d.
func warmCPU(n int, d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// sink keeps the spin's arithmetic from being optimized away.
var sink atomic.Uint64

// derive maps the benchmark seed and a stream name to a 30-bit input seed,
// so each workload's inputs differ between benchmark seeds and leave room
// for consecutive per-request seeds above the base.
func derive(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, stream)
	x := seed ^ h.Sum64()
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x >> 34
}

// medianSetup runs set-up reps times and returns the median duration and
// the last repetition's product; earlier products are released with drop.
func medianSetup[T any](reps int, setup func() (T, error), drop func(T)) (time.Duration, T, error) {
	var zero T
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(t0)))
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return time.Duration(median(times)), last, nil
}
