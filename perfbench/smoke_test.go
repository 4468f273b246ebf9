package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sisyphus/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tinySize shrinks every workload to a few requests or cells.
func tinySize() size {
	return size{
		queryHours:      experiments.QueryMinHours,
		setupReps:       1,
		gridExperiments: []string{"did"},
		gridSeeds:       1,
	}
}

// TestSmokeAllWorkloads runs every workload BENCHMARK.json lists at a tiny
// size, untraced and traced, and checks that each run passes its own
// output checks and prints exactly the metrics, with the units, that
// BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(w.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var log bytes.Buffer
				cfg := config{seed: 3, seconds: time.Second, trace: traced, clients: 2, size: tinySize(), log: &log}
				out, err := drive(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var stdout bytes.Buffer
				if code := out.print(&stdout, w.Name, traced); code != 0 {
					t.Fatalf("exit %d; checks: %s\n%s", code, log.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
			})
		}
	}
}
