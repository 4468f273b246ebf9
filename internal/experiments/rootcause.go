package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/parallel"
)

// RootCauseResult reproduces the paper's §1 motivation (the Facebook and
// Rogers outages): when several things change at once, surface symptoms
// point at the wrong layer. Here an access-side congestion surge (the red
// herring every dashboard shows) coincides with a content-side link failure
// (the actual cause of unreachability). Correlation-based triage ranks the
// louder signal first; counterfactual replay — removing one candidate cause
// at a time from the otherwise-identical world — attributes the outage
// correctly.
type RootCauseResult struct {
	OutageHour float64
	// SymptomUnreachable is the number of units that lost the content
	// during the incident window in the factual world.
	SymptomUnreachable int
	// MedianRTTBefore/During for reachable units (the noisy symptom).
	// During is NaN — JSON null — when nothing was reachable at all.
	MedianRTTBefore, MedianRTTDuring NullableFloat
	// CorrCongestion is the correlation between per-hour unreachability
	// count and access-side congestion — the misleading surface signal.
	// NaN (zero variance in either series) marshals as JSON null.
	CorrCongestion NullableFloat
	// Candidate verdicts: unreachable counts when each candidate cause is
	// counterfactually removed.
	WithoutCongestion int
	WithoutLinkCut    int
}

// Render prints the postmortem.
func (r *RootCauseResult) Render() string {
	t := &table{header: []string{"world", "units unreachable during incident"}}
	t.add("factual (both events)", fmt.Sprintf("%d", r.SymptomUnreachable))
	t.add("counterfactual: no congestion surge", fmt.Sprintf("%d", r.WithoutCongestion))
	t.add("counterfactual: no link failure", fmt.Sprintf("%d", r.WithoutLinkCut))
	during := fmt.Sprintf("%.1f ms", r.MedianRTTDuring)
	if r.MedianRTTDuring.IsNaN() {
		during = "(nothing reachable)"
	}
	return fmt.Sprintf(`Root-cause postmortem (§1 motivation): symptoms vs causes
(incident at hour %.0f; median RTT %.1f ms → %s among reachable units;
corr(unreachability, access congestion) = %+.2f — the misleading signal)

%s
Verdict: removing the congestion surge leaves the outage intact; removing
the link failure eliminates it. The cause is the link, not the congestion —
exactly the distinction correlation alone could not draw.
`, r.OutageHour, r.MedianRTTBefore, during, r.CorrCongestion, t.String())
}

// RootCauseOptions parameterizes the postmortem: just the world to run on.
// The incident's surge links and cut providers come from the world's outage
// cast.
type RootCauseOptions struct {
	ScenarioChoice
}

func (RootCauseOptions) experimentOptions() {}

// WithScenario implements ScenarioOptions.
func (o RootCauseOptions) WithScenario(id string) Options {
	o.Scenario = id
	return o
}

// RunRootCause builds the two-fault world and performs the counterfactual
// attribution. The world comes from o.Scenario (default the South Africa
// world) and must cast an outage (scenario.OutageCast).
func RunRootCause(ctx context.Context, pool parallel.Pool, seed uint64, o RootCauseOptions) (*RootCauseResult, error) {
	const horizon = 120.0
	const outageHour = 60.0
	const windowEnd = 90.0
	scenarioID := scenarioOr(o.Scenario)

	type worldOut struct {
		unreachPerHour []float64
		congPerHour    []float64
		rttBefore      []float64
		rttDuring      []float64
		totalUnreach   int
	}
	run := func(withCongestion, withCut bool) (*worldOut, error) {
		s, rib, err := fetchWorld(ctx, pool, scenarioID)
		if err != nil {
			return nil, err
		}
		cast, err := s.RequireOutage()
		if err != nil {
			return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
		}
		content := s.MeasureDst()
		e := engine.New(s.Topo, seed, engine.Config{InitialRIB: rib}).Bind(ctx)
		rel, err := s.Topo.Relationships()
		if err != nil {
			return nil, err
		}
		surge := make([]topo.LinkID, 0, len(cast.Surge))
		for _, ref := range cast.Surge {
			id, err := ref.Resolve(rel)
			if err != nil {
				return nil, fmt.Errorf("experiments: world %q: surge link: %w", scenarioID, err)
			}
			surge = append(surge, id)
		}
		if withCongestion {
			// The red herring: a demand surge on the cast interconnects, loud
			// on every utilization dashboard.
			for _, id := range surge {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
					Link: id, StartHour: outageHour - 2, Hours: windowEnd - outageHour + 6, Magnitude: 0.4,
				})
			}
		}
		if withCut {
			// The actual cause: a configuration push withdraws every one of
			// the content network's transit uplinks at once — the
			// Facebook-style total disappearance. (Its IXP peerings at this
			// point connect only to other content networks, so they provide
			// no transit.)
			var cut []topo.LinkID
			for _, p := range cast.CutProviders {
				cut = append(cut, rel.Links[content][p]...)
			}
			for _, id := range cut {
				e.Schedule(engine.EvLinkDown(outageHour, id))
				e.Schedule(engine.EvLinkUp(windowEnd, id))
			}
		}
		out := &worldOut{}
		congLink := surge[0]
		for e.Hour() < horizon {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := e.Step(); err != nil {
				return nil, err
			}
			unreach := 0
			var rtts []float64
			for _, u := range s.AllUnits() {
				src, err := s.UserPoP(u)
				if err != nil {
					return nil, err
				}
				perf, err := e.PerfToAS(src, content)
				if err != nil {
					unreach++
					continue
				}
				rtts = append(rtts, perf.RTTms)
			}
			out.unreachPerHour = append(out.unreachPerHour, float64(unreach))
			out.congPerHour = append(out.congPerHour, e.Utilization(congLink))
			if e.Hour() >= outageHour && e.Hour() < windowEnd {
				out.totalUnreach += unreach
				if len(rtts) > 0 {
					out.rttDuring = append(out.rttDuring, mathx.Median(rtts))
				}
			} else if e.Hour() < outageHour {
				out.rttBefore = append(out.rttBefore, mathx.Median(rtts))
			}
		}
		return out, nil
	}

	res := &RootCauseResult{OutageHour: outageHour}
	var factual, noCong, noCut *worldOut
	err := stagedRun(ctx, "rootcause", func(ctx context.Context) error {
		// Factual world plus the two single-candidate-removed replays.
		var err error
		if factual, err = run(true, true); err != nil {
			return err
		}
		if noCong, err = run(false, true); err != nil {
			return err
		}
		noCut, err = run(true, false)
		return err
	}, nil, func(ctx context.Context) error {
		res.SymptomUnreachable = int(mathx.Vector(factual.unreachPerHour).Max())
		res.MedianRTTBefore = NullableFloat(mathx.Median(factual.rttBefore))
		res.MedianRTTDuring = NullableFloat(mathx.Median(factual.rttDuring))
		res.CorrCongestion = NullableFloat(mathx.Correlation(factual.unreachPerHour, factual.congPerHour))
		res.WithoutCongestion = int(mathx.Vector(noCong.unreachPerHour).Max())
		res.WithoutLinkCut = int(mathx.Vector(noCut.unreachPerHour).Max())
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	defaults := RootCauseOptions{}
	register(Experiment{
		ID:       "rootcause",
		Paper:    "§1 motivation: surface symptoms vs root causes (Facebook/Rogers)",
		Defaults: defaults,
		Run: func(ctx context.Context, cfg Config) (Renderable, error) {
			o, err := optionsOr(cfg, defaults)
			if err != nil {
				return nil, err
			}
			return RunRootCause(ctx, cfg.Pool, cfg.Seed, o)
		},
	})
}
