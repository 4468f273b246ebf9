package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/parallel"
)

// ConfoundingResult reproduces the §3 running example: congestion C causes
// both route changes R (via load-adaptive egress) and latency L (via
// queueing), so the naive P(L | R) contrast is biased. The simulator
// provides the ground-truth interventional effect for comparison.
type ConfoundingResult struct {
	Hours       int
	RouteShare  float64 // fraction of hours spent on the alternate route
	Naive       estimate.Estimate
	Stratified  estimate.Estimate
	Regression  estimate.Estimate
	IPW         estimate.Estimate
	TrueEffect  float64 // ground truth: mean per-hour forced-route contrast
	DAGAnalysis string
}

// Render prints the estimator comparison.
func (r *ConfoundingResult) Render() string {
	t := &table{header: []string{"estimator", "effect of route change on RTT (ms)", "SE", "p"}}
	add := func(e estimate.Estimate) {
		t.add(e.Method, fmt.Sprintf("%+.3f", e.Effect), fmt.Sprintf("%.3f", e.SE), fmt.Sprintf("%.3f", e.PValue()))
	}
	add(r.Naive)
	add(r.Stratified)
	add(r.Regression)
	add(r.IPW)
	t.add("GROUND TRUTH do(R)", fmt.Sprintf("%+.3f", r.TrueEffect), "-", "-")
	return fmt.Sprintf("Running example (§3): congestion confounds routing and latency\n(%d hours simulated, alternate route used %.0f%% of the time)\n\n%s\nDAG analysis:\n%s",
		r.Hours, 100*r.RouteShare, t.String(), r.DAGAnalysis)
}

// RunConfounding simulates a multihomed access network whose egress
// controller shifts to its backup transit under congestion, while the same
// congestion inflates RTT. It compares naive, stratified, regression and
// IPW estimates of the route's effect against the simulator's ground truth
// obtained by pinning the route both ways at every sampled hour. The world
// comes from o.Scenario (default the South Africa world) and must cast a
// multihomed eyeball.
func RunConfounding(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*ConfoundingResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 1500
	}
	res := &ConfoundingResult{Hours: hours}
	var sim *confoundingSim
	var f *data.Frame
	err := stagedRun(ctx, "confounding", func(ctx context.Context) error {
		var err error
		sim, err = confoundingScenario(ctx, pool, scenarioOr(o.Scenario), seed, hours)
		return err
	}, func(ctx context.Context) error {
		var err error
		f, err = data.FromColumns(map[string][]float64{
			"R": sim.rCol, "L": sim.lCol, "C": sim.cCol, "hour": sim.hourCol,
		})
		return err
	}, func(ctx context.Context) error {
		var err error
		res.RouteShare = sim.altShare / float64(len(sim.rCol))
		if res.Naive, err = estimate.NaiveAssociation(f, "R", "L"); err != nil {
			return err
		}
		if res.Stratified, err = estimate.Stratified(f, "R", "L", []string{"C"}, 10); err != nil {
			return err
		}
		if res.Regression, err = estimate.Regression(f, "R", "L", []string{"C"}); err != nil {
			return err
		}
		if res.IPW, err = estimate.IPW(f, "R", "L", []string{"C"}, 0.01); err != nil {
			return err
		}
		res.TrueEffect = sim.trueSum / float64(sim.trueN)
		return nil
	}, func(ctx context.Context) error {
		// The planning-side DAG analysis the paper advocates doing first.
		g := dag.MustParse("C -> R; C -> L; R -> L")
		sets, err := g.MinimalAdjustmentSets("R", "L")
		if err != nil {
			return err
		}
		res.DAGAnalysis = fmt.Sprintf("  graph: C -> R; C -> L; R -> L\n  backdoor paths: %v\n  minimal adjustment sets: %v\n",
			pathStrings(g.BackdoorPaths("R", "L")), sets)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// confoundingSim holds the raw per-hour observational columns plus the
// interventional ground-truth accumulators the scenario stage produces.
type confoundingSim struct {
	rCol, lCol, cCol, hourCol []float64
	altShare                  float64
	trueSum                   float64
	trueN                     int
}

// confoundingScenario builds the named world with a load-adaptive egress,
// simulates it, and collects the observational columns plus the
// forced-route ground-truth contrast. The world must cast a multihomed
// eyeball (scenario.EyeballCast); worlds without one refuse with
// scenario.ErrCastingMissing.
func confoundingScenario(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*confoundingSim, error) {
	s, rib, err := fetchWorld(ctx, pool, scenarioID)
	if err != nil {
		return nil, err
	}
	cast, err := s.RequireEyeball()
	if err != nil {
		return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
	}
	dst := s.MeasureDst()
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true, InitialRIB: rib}).Bind(ctx)

	// The eyeball's content routes prefer its primary transit (shorter path,
	// lower ASN), so recurring flash crowds on that link trigger
	// load-adaptive shifts onto the alternate — congestion causing the route
	// change, the C → R edge of the running example.
	rel, err := s.Topo.Relationships()
	if err != nil {
		return nil, err
	}
	primary := rel.Links[cast.ASN][cast.Primary][0]
	rng := mathx.NewRNG(seed + 99)
	for h := 24.0; h < float64(hours); h += 48 + 24*rng.Float64() {
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
			Link: primary, StartHour: h, Hours: 6 + 12*rng.Float64(), Magnitude: 0.35 + 0.2*rng.Float64(),
		})
	}

	src, err := s.Topo.FindPoP(cast.ASN, cast.City)
	if err != nil {
		return nil, err
	}

	// A slice of hours carries exogenous one-hour route forcings (the §4
	// "knob": operator-scheduled path tests). They guarantee that both
	// routes are observed at every congestion level — the positivity
	// condition adjustment estimators need. The remaining hours use
	// whatever the endogenous controller chose, which is where the
	// confounding lives.
	flipRNG := mathx.NewRNG(seed + 7)

	sim := &confoundingSim{}
	for e.Hour() < float64(hours) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
		// Ground truth: force each route in turn, same instant, same noise.
		viaAlt, viaPrimary, err := forcedContrast(e, cast, dst, src)
		if err != nil {
			return nil, err
		}
		sim.trueSum += viaAlt.RTTms - viaPrimary.RTTms
		sim.trueN++

		// A forced hour observes the contrast arm it forces: the what-if
		// query is pure, so it is the value forcing the route would show.
		var perf *engine.PathPerf
		switch {
		case flipRNG.Bernoulli(0.25):
			perf = viaPrimary // force primary
		case flipRNG.Bernoulli(1.0 / 3.0): // 0.25 of the original mass
			perf = viaAlt // force alternate
		default:
			if perf, err = e.PerfToAS(src, dst); err != nil {
				return nil, err
			}
		}
		onAlt := 0.0
		for _, asn := range perf.Path.ASPath {
			if asn == cast.Alternate {
				onAlt = 1
			}
		}
		sim.altShare += onAlt
		sim.rCol = append(sim.rCol, onAlt)
		sim.lCol = append(sim.lCol, perf.RTTms)
		sim.cCol = append(sim.cCol, e.Utilization(primary))
		sim.hourCol = append(sim.hourCol, e.Hour())
	}
	return sim, nil
}

// forcedContrast pins the eyeball's egress to each transit in turn and
// measures the true performance under identical conditions: the
// do(R = alt) and do(R = primary) outcomes at this instant. Both arms are
// what-if queries, so the factual trajectory is untouched.
func forcedContrast(e *engine.Engine, cast scenario.EyeballCast, dst topo.ASN, src topo.PoPID) (viaAlt, viaPrimary *engine.PathPerf, err error) {
	if viaAlt, err = perfForced(e, cast, dst, src, cast.Primary); err != nil {
		return nil, nil, err
	}
	if viaPrimary, err = perfForced(e, cast, dst, src, cast.Alternate); err != nil {
		return nil, nil, err
	}
	return viaAlt, viaPrimary, nil
}

// perfForced is the eyeball's performance now had it avoided one transit:
// the avoided provider is de-preffed, the other restored to the provider
// default, on a clone of the engine's policy.
func perfForced(e *engine.Engine, cast scenario.EyeballCast, dst topo.ASN, src topo.PoPID, avoid topo.ASN) (*engine.PathPerf, error) {
	other := cast.Primary
	if avoid == cast.Primary {
		other = cast.Alternate
	}
	pol := e.Policy.Clone()
	pol.SetLocalPref(cast.ASN, avoid, 10)
	pol.SetLocalPref(cast.ASN, other, bgp.PrefProvider)
	rib, err := e.RIBUnder(pol)
	if err != nil {
		return nil, err
	}
	return e.PerfToASOn(rib, src, dst)
}

func pathStrings(ps []dag.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func init() {
	defaults := WorldOptions{Hours: 1500}
	register(Experiment{
		ID:       "confounding",
		Paper:    "§3 running example: adjusting for congestion when estimating route → latency",
		Defaults: defaults,
		Run: func(ctx context.Context, cfg Config) (Renderable, error) {
			o, err := optionsOr(cfg, defaults)
			if err != nil {
				return nil, err
			}
			return RunConfounding(ctx, cfg.Pool, cfg.Seed, o)
		},
	})
}
