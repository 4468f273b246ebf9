package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/sweep"
)

// sweep: the batch user's grid — sweep.Run over four experiments × the
// South Africa world and one generated world × four seeds, on a fresh
// store each time and a pool of cfg.clients workers. The platform campaign,
// routing's forwarding path and the synthetic-control estimator carry it,
// not routing compute, so it covers the layers query-cold does not.

// sweepGenSpec is the sweep's generated world. It is fixed, not derived
// from the seed: every experiment of the grid must be able to cast it.
const sweepGenSpec = "gen:access=10+treated=2+seed=7"

func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	base := derive(cfg.seed, "sweep")
	seeds := make([]uint64, cfg.size.gridSeeds)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	fails := &failLog{w: cfg.log}

	// Set-up: resolve the generated world and validate the grid. Run with a
	// cancelled context, sweep.Run validates every cell up front and then
	// returns the context's error without running any.
	setup := func() (sweep.GridConfig, error) {
		gen, err := scenario.ResolveID(sweepGenSpec)
		if err != nil {
			return sweep.GridConfig{}, err
		}
		g := sweep.GridConfig{
			Experiments: cfg.size.gridExperiments,
			Scenarios:   []string{scenario.SouthAfricaID, gen},
			Seeds:       seeds,
			Pool:        parallel.NewPool(cfg.clients),
		}
		dry, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := sweep.Run(dry, g); !errors.Is(err, context.Canceled) {
			return sweep.GridConfig{}, fmt.Errorf("grid validation: %v", err)
		}
		return g, nil
	}
	// This set-up takes microseconds, so it repeats 33 times as often as the
	// other workloads' for a steady median.
	setupTime, grid, err := medianSetup(cfg.size.setupReps*33, setup, func(sweep.GridConfig) {})
	if err != nil {
		return nil, err
	}
	cells := len(grid.Experiments) * len(grid.Scenarios) * len(grid.Seeds)

	// Every grid of the run has the same seeds, so every report must be
	// byte-identical to the first. Grids run one at a time, on the closed
	// loop's single client.
	var firstReport []byte
	var failedCells int64
	var stores []artifact.Stats
	op := func(ctx context.Context) opFunc {
		return func(_ context.Context, seq int) error {
			g := grid
			g.Artifacts = artifact.NewStore()
			rep, err := sweep.Run(ctx, g)
			stores = append(stores, g.Artifacts.Stats())
			if err != nil {
				failedCells += int64(cells)
				return fails.errorf("grid %d: %v", seq, err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				failedCells += int64(cells)
				return fails.errorf("grid %d: encoding report: %v", seq, err)
			}
			switch {
			case len(rep.Failures) > 0 || rep.OKCells != cells:
				failedCells += int64(cells - rep.OKCells)
				return fails.errorf("grid %d: %d of %d cells failed, first: %v", seq, cells-rep.OKCells, cells, rep.Failures)
			case firstReport == nil:
				firstReport = b
			case !bytes.Equal(b, firstReport):
				failedCells += int64(cells)
				return fails.errorf("grid %d: report differs from the run's first grid at the same seeds", seq)
			}
			return nil
		}
	}

	out := &outcome{}
	if !cfg.trace {
		win := openWindow()
		st := closedLoop(ctx, 1, cfg.seconds, op(ctx))
		win.close()
		grids := len(st.samples)
		out.attempted, out.failed = int64(grids*cells), failedCells
		// Grids run one after another, so the median grid gives both
		// numbers; a grid slowed by outside load does not move either.
		p50 := median(st.latenciesMs())
		e := &out.e2e
		e.add("setup_s", setupTime.Seconds(), "s")
		e.add("latency_p50_ms", p50, "ms")
		e.add("ops_per_s", float64(cells)/(p50/1e3), "ops/s")
		e.add("alloc_mib_per_op", win.allocMiB()/float64(out.attempted), "MiB")
		e.add("peak_heap_mib", win.peakMiB(), "MiB")
		out.extra.add("grids", float64(grids), "count")
		return out, nil
	}

	// Traced run: grids without the recorder for the overhead baseline, then
	// grids whose context carries one.
	half := cfg.seconds / 2
	plain := closedLoop(ctx, 1, half, op(ctx))
	tr := newTracer()
	recEpoch := time.Now()
	rec := obs.NewRecorder()
	stores = nil
	win := openWindow()
	st := closedLoop(ctx, 1, half, op(obs.With(ctx, rec)))
	win.close()
	tr.addOps(st, 0, func(int) string { return "loadgen/grid" })
	tr.adopt(rec, recEpoch)
	out.attempted, out.failed = int64((len(plain.samples)+len(st.samples))*cells), failedCells
	var cache artifact.Stats
	for _, s := range stores {
		cache.Hits += s.Hits
		cache.Misses += s.Misses
		cache.Builds += s.Builds
		cache.Evictions += s.Evictions
		cache.Entries = max(cache.Entries, s.Entries)
		cache.Bytes = max(cache.Bytes, s.Bytes)
	}
	out.layers, err = layerMetrics(ctx, layerIn{
		rec: rec, tr: tr, ops: float64(len(st.samples) * cells), cache: cache, win: win, cores: cfg.clients,
		untraced: plain.rate, traced: st.rate,
		worlds: grid.Scenarios, genSpec: sweepGenSpec,
	})
	if err != nil {
		return nil, err
	}
	return out, tr.write(cfg.tracePath)
}
