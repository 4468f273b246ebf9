package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// query-cold: a closed loop of cfg.clients callers sends POST /query for
// R → L with the adjustment identified automatically. Every request carries
// a seed no earlier request used, so its observational frame is always
// simulated; one request in four also names a generated world no earlier
// request used, so the world and its routing are built as well. This is the
// served cold path: routing compute inside the confounding-panel code
// does most of the work, and the artifact store sees misses, inserts and
// evictions only.

// coldGenSpec is the generated-world family of query-cold's fourth requests.
const coldGenSpec = "gen:access=10+treated=2+seed=%d"

// minColdRequest is the shortest a cold query is assumed to take when the
// generated worlds are chosen before a run; one takes about 1.5 s today.
const minColdRequest = 20 * time.Millisecond

// coldInputs are query-cold's request inputs. The generated worlds are
// chosen before the run, so that choosing them is not measured.
type coldInputs struct {
	base uint64
	// gens[k] is the world of request 4k+3.
	gens []string
}

// newColdInputs chooses the generated worlds of the first requests requests.
func newColdInputs(base uint64, requests int) (*coldInputs, error) {
	in := &coldInputs{base: base}
	for seq := 3; seq < requests; seq += 4 {
		spec, err := castableGen(in.seed(seq))
		if err != nil {
			return nil, err
		}
		in.gens = append(in.gens, spec)
	}
	return in, nil
}

func (in *coldInputs) seed(seq int) uint64 { return in.base + 1 + uint64(seq) }

// request is request seq's world and seed: seeds run upward from base+1,
// and every fourth request gets a generated world of its own.
func (in *coldInputs) request(seq int) (world string, seed uint64, err error) {
	seed = in.seed(seq)
	if seq%4 != 3 {
		return scenario.SouthAfricaID, seed, nil
	}
	if k := seq / 4; k < len(in.gens) {
		return in.gens[k], seed, nil
	}
	// Only requests faster than minColdRequest get here; choosing a world
	// takes about 0.3 ms.
	world, err = castableGen(seed)
	return world, seed, err
}

// castableGen returns the first of sixteen generated worlds, with seeds
// disjoint between requests, that casts the multihomed eyeball /query
// needs. A few worlds of the family have no access AS with two transit
// providers, and the server refuses a query on one with 422; choosing the
// inputs keeps every request answerable.
func castableGen(seed uint64) (string, error) {
	for i := uint64(0); i < 16; i++ {
		spec := fmt.Sprintf(coldGenSpec, seed*16+i)
		id, err := scenario.ResolveID(spec)
		if err != nil {
			return "", err
		}
		w, err := scenario.Build(id)
		if err != nil {
			return "", err
		}
		if _, err := w.RequireEyeball(); err == nil {
			return spec, nil
		}
	}
	return "", fmt.Errorf("no castable world among seeds %d..%d of %s", seed*16, seed*16+15, coldGenSpec)
}

func queryDoc(world string, seed uint64, hours int) string {
	return fmt.Sprintf(`{"treatment":"R","outcome":"L","adjustment":"auto","scenario":%q,"seed":%d,"hours":%d}`, world, seed, hours)
}

// coldAnswer is the part of a query result every response is checked on.
type coldAnswer struct {
	Rows       int
	TrueEffect *float64
}

func runQueryCold(ctx context.Context, cfg config) (*outcome, error) {
	base := derive(cfg.seed, "query-cold")
	hours := cfg.size.queryHours
	fails := &failLog{w: cfg.log}
	inputs, err := newColdInputs(base, cfg.clients*int(cfg.seconds/minColdRequest))
	if err != nil {
		return nil, err
	}

	// Set-up: a fresh store and server, primed with one query at a seed
	// below the request sequence so the South Africa world and RIB exist.
	setup := func() (*server, error) {
		s := startServer(cfg.clients, artifact.NewStore(), nil)
		status, body, err := s.do(ctx, http.MethodPost, "/query", "", queryDoc(scenario.SouthAfricaID, base, experiments.QueryMinHours))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming query: status %d: %s", status, body)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	setupTime, srv, err := medianSetup(cfg.size.setupReps, setup, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()

	// The first request's body is kept and replayed after the run.
	var first struct {
		sync.Mutex
		body []byte
		seq  int
	}
	first.seq = -1
	op := func(s *server, offset int) opFunc {
		return func(ctx context.Context, seq int) error {
			seq += offset
			world, seed, err := inputs.request(seq)
			if err != nil {
				return fails.errorf("query %d: %v", seq, err)
			}
			status, body, err := s.do(ctx, http.MethodPost, "/query", "", queryDoc(world, seed, hours))
			if err != nil {
				return fails.errorf("query %d: %v", seq, err)
			}
			if status != http.StatusOK {
				return fails.errorf("query %d (%s seed %d): status %d: %s", seq, world, seed, status, body)
			}
			var ans coldAnswer
			if err := json.Unmarshal(body, &ans); err != nil {
				return fails.errorf("query %d: decoding answer: %v", seq, err)
			}
			if ans.Rows != hours || ans.TrueEffect == nil {
				return fails.errorf("query %d: %d rows (want %d), ground truth present: %v", seq, ans.Rows, hours, ans.TrueEffect != nil)
			}
			first.Lock()
			if first.seq < 0 || seq < first.seq {
				first.seq, first.body = seq, body
			}
			first.Unlock()
			return nil
		}
	}
	// replay answers the kept request with no store and no server; the
	// bytes must match what was served.
	replay := func() error {
		if first.seq < 0 {
			return fails.errorf("no query succeeded; nothing to replay")
		}
		world, seed, err := inputs.request(first.seq)
		if err != nil {
			return fails.errorf("replaying query %d: %v", first.seq, err)
		}
		res, err := experiments.RunCausalQuery(ctx, experiments.Config{Pool: parallel.NewPool(cfg.clients)},
			experiments.CausalQuery{Treatment: "R", Outcome: "L", Auto: true, Scenario: world, Seed: seed, Hours: hours})
		if err != nil {
			return fails.errorf("replaying query %d: %v", first.seq, err)
		}
		want, err := encodeDoc(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, first.body) {
			return fails.errorf("query %d: served bytes differ from a direct RunCausalQuery", first.seq)
		}
		return nil
	}

	out := &outcome{}
	if !cfg.trace {
		win := openWindow()
		st := closedLoop(ctx, cfg.clients, cfg.seconds, op(srv, 0))
		win.close()
		out.attempted, out.failed = st.counts()
		if replay() != nil {
			out.failed++
		}
		lat := st.latenciesMs()
		e := &out.e2e
		e.add("setup_s", setupTime.Seconds(), "s")
		e.add("latency_p50_ms", median(lat), "ms")
		e.add("ops_per_s", st.rate, "ops/s")
		e.add("alloc_mib_per_op", win.allocMiB()/float64(out.attempted), "MiB")
		e.add("peak_heap_mib", win.peakMiB(), "MiB")
		if p90, ok := percentile(lat, 0.9); ok {
			out.extra.add("latency_p90_ms", p90, "ms")
		} else {
			out.extra.none("latency_p90_ms", "ms", fmt.Sprintf("%d samples; p90 needs %d", len(lat), 10*minBeyond))
		}
		out.extra.add("samples", float64(len(lat)), "count")
		return out, nil
	}

	// Traced run: one client, so each stage span falls inside exactly one
	// request. The first half runs untraced for the overhead baseline; the
	// second half records through a second server over the same store.
	half := cfg.seconds / 2
	plain := closedLoop(ctx, 1, half, op(srv, 0))
	offset := len(plain.samples)
	tr := newTracer()
	recEpoch := time.Now()
	rec := obs.NewRecorder()
	traced := startServer(cfg.clients, srv.store, rec)
	defer traced.close()
	before := srv.store.Stats()
	win := openWindow()
	st := closedLoop(ctx, 1, half, op(traced, offset))
	win.close()
	cache := statsDelta(before, srv.store.Stats())
	tr.addOps(st, offset, func(int) string { return "loadgen/query" })
	tr.adopt(rec, recEpoch)
	for _, l := range []loopStats{plain, st} {
		a, f := l.counts()
		out.attempted += a
		out.failed += f
	}
	if replay() != nil {
		out.failed++
	}
	genID, err := scenario.ResolveID(fmt.Sprintf(coldGenSpec, base))
	if err != nil {
		return nil, err
	}
	q := experiments.CausalQuery{Treatment: "R", Outcome: "L", Auto: true, Scenario: scenario.SouthAfricaID, Seed: base, Hours: hours}
	out.layers, err = layerMetrics(ctx, layerIn{
		rec: rec, tr: tr, ops: float64(len(st.samples)), cache: cache, win: win, cores: cfg.clients,
		untraced: plain.rate, traced: st.rate, opName: "loadgen/query",
		worlds: []string{scenario.SouthAfricaID, genID}, genSpec: fmt.Sprintf(coldGenSpec, base+1), query: &q,
	})
	if err != nil {
		return nil, err
	}
	return out, tr.write(cfg.tracePath)
}
