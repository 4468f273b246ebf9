package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

func TestRegistryListsAllExperiments(t *testing.T) {
	want := []string{"cellular", "chaos", "collider", "confounding",
		"counterfactual", "did", "exposure", "familyknob", "instrument",
		"intent", "mlab", "power", "rootcause", "table1", "tromboneera"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v want %v", got, want)
		}
	}
	if _, err := Get("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(All()) != len(want) {
		t.Fatal("All() size mismatch")
	}
}

func TestTableRenderer(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("xxx", "y")
	out := tb.String()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "---") {
		t.Fatalf("table = %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d", len(lines))
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res, err := RunTable1(context.Background(), parallel.Pool{}, Table1Config{Weeks: 4, JoinWeek: 2, Seed: 1, Method: synthetic.Robust, WithTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d want 8 (Table 1)", len(res.Rows))
	}
	var negative, positive, tracked int
	for _, row := range res.Rows {
		if !row.Crossed {
			t.Fatalf("unit %v never crossed the IXP", row.Unit)
		}
		// Effects must be in the paper's small-magnitude regime, not the
		// tromboning regime (tens of ms).
		if math.Abs(row.RTTDelta) > 15 {
			t.Fatalf("unit %v effect %v ms outside paper-scale range", row.Unit, row.RTTDelta)
		}
		if row.RTTDelta < 0 {
			negative++
		} else {
			positive++
		}
		if row.PValue <= 0 || row.PValue > 1 {
			t.Fatalf("p = %v", row.PValue)
		}
		if row.RMSERatio <= 0 {
			t.Fatalf("rmse ratio = %v", row.RMSERatio)
		}
		// Estimates must track ground truth within a few ms.
		if !row.TrueDelta.IsNaN() && math.Abs(row.RTTDelta-float64(row.TrueDelta)) < 3 {
			tracked++
		}
	}
	// Paper shape: mixed signs ("RTT occasionally decreases … neither
	// consistent nor robust").
	if negative == 0 || positive == 0 {
		t.Fatalf("expected mixed signs, got %d negative / %d positive", negative, positive)
	}
	if tracked < 6 {
		t.Fatalf("only %d/8 estimates track ground truth", tracked)
	}
	out := res.Render()
	for _, want := range []string{"NAPAfrica", "3741 / East London", "328745 / Johannesburg", "RMSE Ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestTable1DetectsTreatmentFromHops(t *testing.T) {
	// With no join scheduled (JoinWeek beyond the horizon), nothing crosses.
	res, err := RunTable1(context.Background(), parallel.Pool{}, Table1Config{Weeks: 2, JoinWeek: 8, Seed: 2, Method: synthetic.Robust})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Crossed {
			t.Fatalf("unit %v crossed without a join event", row.Unit)
		}
	}
}

func TestConfoundingRecoversGroundTruth(t *testing.T) {
	res, err := RunConfounding(context.Background(), parallel.Pool{}, 7, WorldOptions{Hours: 900})
	if err != nil {
		t.Fatal(err)
	}
	// Naive must be biased toward zero / wrong vs truth; stratified must be
	// within 25% of the ground-truth ATE.
	if math.Abs(res.Naive.Effect-res.TrueEffect) < math.Abs(res.Stratified.Effect-res.TrueEffect) {
		t.Fatalf("naive (%v) beat stratified (%v) against truth (%v)",
			res.Naive.Effect, res.Stratified.Effect, res.TrueEffect)
	}
	if math.Abs(res.Stratified.Effect-res.TrueEffect) > 0.3*math.Abs(res.TrueEffect)+0.5 {
		t.Fatalf("stratified %v too far from truth %v", res.Stratified.Effect, res.TrueEffect)
	}
	if !strings.Contains(res.DAGAnalysis, "R <- C -> L") {
		t.Fatalf("dag analysis = %q", res.DAGAnalysis)
	}
	if res.RouteShare <= 0.05 || res.RouteShare >= 0.95 {
		t.Fatalf("route share = %v; treatment needs variation", res.RouteShare)
	}
}

func TestColliderFabricatesAssociation(t *testing.T) {
	res, err := RunCollider(context.Background(), 7, 2500)
	if err != nil {
		t.Fatal(err)
	}
	// Truth: essentially no association in the population.
	if math.Abs(res.PopulationCorr) > 0.08 {
		t.Fatalf("population corr = %v; world should have none", res.PopulationCorr)
	}
	// Selection: a clear explain-away shift (conditioning on the collider
	// pushes the association negative relative to the population).
	if res.SelectedCorr >= res.PopulationCorr-0.05 {
		t.Fatalf("selection did not shift the association: pop %v sel %v", res.PopulationCorr, res.SelectedCorr)
	}
	if res.SelChangeDegraded >= res.SelNoChangeDegraded {
		t.Fatal("explain-away pattern missing in conditional shares")
	}
	if len(res.Warnings) == 0 {
		t.Fatal("no DAG warning produced")
	}
}

func TestCellularSignReversal(t *testing.T) {
	res, err := RunCellular(context.Background(), 7, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveSlope.Effect <= 0 {
		t.Fatalf("naive slope %v should be positive (the paper's anomaly)", res.NaiveSlope.Effect)
	}
	if math.Abs(res.AdjustedSlope.Effect-res.TrueCoefficient) > 0.05 {
		t.Fatalf("adjusted slope %v want ≈%v", res.AdjustedSlope.Effect, res.TrueCoefficient)
	}
	if res.StratifiedSlope.Effect >= 0 {
		t.Fatalf("stratified slope %v should recover the negative effect", res.StratifiedSlope.Effect)
	}
}

func TestMLabRandomizationUnbiased(t *testing.T) {
	res, err := RunMLab(context.Background(), parallel.Pool{}, 7, WorldOptions{Hours: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Randomized.Effect-res.TrueEffect) > 0.6 {
		t.Fatalf("randomized %v vs truth %v", res.Randomized.Effect, res.TrueEffect)
	}
	// Self-selection must be further from truth than randomization.
	if math.Abs(res.SelfSelected.Effect-res.TrueEffect) <= math.Abs(res.Randomized.Effect-res.TrueEffect) {
		t.Fatalf("self-selected (%v) not worse than randomized (%v) vs truth (%v)",
			res.SelfSelected.Effect, res.Randomized.Effect, res.TrueEffect)
	}
}

func TestInstrumentValidBeatsInvalid(t *testing.T) {
	res, err := RunInstrument(context.Background(), parallel.Pool{}, 7, WorldOptions{Hours: 1500})
	if err != nil {
		t.Fatal(err)
	}
	errValid := math.Abs(res.ValidIV.Effect - res.TrueEffect)
	errInvalid := math.Abs(res.InvalidIV.Effect - res.TrueEffect)
	errNaive := math.Abs(res.NaiveOLS.Effect - res.TrueEffect)
	if errValid >= errInvalid {
		t.Fatalf("valid IV error %v not better than invalid %v", errValid, errInvalid)
	}
	if errValid >= errNaive {
		t.Fatalf("valid IV error %v not better than naive %v", errValid, errNaive)
	}
	if res.ValidIV.FirstStageF < 10 {
		t.Fatalf("weak instrument: F = %v", res.ValidIV.FirstStageF)
	}
	if len(res.DAGValid) != 1 || res.DAGValid[0] != "Zmaint" {
		t.Fatalf("dag instruments = %v", res.DAGValid)
	}
	if len(res.DAGViolated) == 0 {
		t.Fatal("no exclusion violations reported for the invalid candidate")
	}
}

func TestCounterfactualAgreesWithReplay(t *testing.T) {
	res, err := RunCounterfactual(context.Background(), parallel.Pool{}, 7, WorldOptions{Hours: 800})
	if err != nil {
		t.Fatal(err)
	}
	// The SCM-based attribution and the ground-truth replay must agree on
	// the qualitative answer: the reroute explains only a small part of the
	// spike (both attributions well below half the factual RTT).
	if math.Abs(res.AttributionSCM) > res.FactualRTT/2 {
		t.Fatalf("SCM attributes too much: %v of %v", res.AttributionSCM, res.FactualRTT)
	}
	if math.Abs(res.AttributionSCM-res.AttributionTru) > 3 {
		t.Fatalf("SCM attribution %v vs truth %v", res.AttributionSCM, res.AttributionTru)
	}
	if res.ReplayTruth <= 0 || res.SCMPredicted <= 0 {
		t.Fatalf("degenerate counterfactuals: %v %v", res.ReplayTruth, res.SCMPredicted)
	}
}

func TestExposureIsNotImpact(t *testing.T) {
	res, err := RunExposure(context.Background(), parallel.Pool{}, 7, ExposureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankFlips == 0 {
		t.Fatal("exposure and impact rankings agree everywhere; the box's point is lost")
	}
	// There must exist a high-exposure zero-unreachable link AND a
	// low-exposure link that partitions something.
	var highExpNoLoss, lowExpLoss bool
	for _, row := range res.Rows {
		if row.Exposure >= 10 && row.Unreachable == 0 {
			highExpNoLoss = true
		}
		if row.Exposure <= 2 && row.Unreachable > 0 {
			lowExpLoss = true
		}
	}
	if !highExpNoLoss || !lowExpLoss {
		t.Fatalf("missing contrast rows: %+v", res.Rows)
	}
}

func TestIntentTagsSeparateBias(t *testing.T) {
	res, err := RunIntent(context.Background(), 7, 1200)
	if err != nil {
		t.Fatal(err)
	}
	biasBase := math.Abs(res.BaselineMean - res.TrueMeanRTT)
	biasUser := math.Abs(res.UserMean - res.TrueMeanRTT)
	if biasBase > 0.25 {
		t.Fatalf("baseline should be unbiased: %v", biasBase)
	}
	if biasUser < biasBase+0.2 {
		t.Fatalf("user-initiated should be clearly biased: %v vs %v", biasUser, biasBase)
	}
	if res.TriggeredCount == 0 {
		t.Fatal("conditional activation captured no route changes")
	}
	if res.BaselineCount == 0 || res.UserCount == 0 {
		t.Fatal("empty strata")
	}
}

func TestAllRegisteredExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	// Smoke every registry entry through the same path the CLI uses.
	for _, id := range []string{"cellular", "collider", "exposure", "mlab", "intent"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), Config{Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Render() == "" {
			t.Fatalf("%s rendered empty", id)
		}
	}
}

func TestRootCauseAttribution(t *testing.T) {
	res, err := RunRootCause(context.Background(), parallel.Pool{}, 5, RootCauseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SymptomUnreachable < 20 {
		t.Fatalf("outage too small: %d units", res.SymptomUnreachable)
	}
	// The counterfactuals must separate the candidates cleanly.
	if res.WithoutCongestion < res.SymptomUnreachable {
		t.Fatalf("removing the red herring changed the outage: %d vs %d",
			res.WithoutCongestion, res.SymptomUnreachable)
	}
	if res.WithoutLinkCut != 0 {
		t.Fatalf("removing the true cause left %d units dark", res.WithoutLinkCut)
	}
	// The misleading correlation must be present (that is the point).
	if res.CorrCongestion < 0.3 {
		t.Fatalf("corr = %v; the red herring should correlate with the symptom", res.CorrCongestion)
	}
	if !strings.Contains(res.Render(), "Verdict") {
		t.Fatal("render missing verdict")
	}
}

func TestFamilyKnobIVMatchesTruth(t *testing.T) {
	res, err := RunFamilyKnob(context.Background(), parallel.Pool{}, 4, WorldOptions{Hours: 700})
	if err != nil {
		t.Fatal(err)
	}
	if res.FamilyIV.FirstStageF < 50 {
		t.Fatalf("family toggle should be a very strong instrument: F=%v", res.FamilyIV.FirstStageF)
	}
	if math.Abs(res.FamilyIV.Effect-res.TrueEffect) > 0.5 {
		t.Fatalf("family IV %v vs truth %v", res.FamilyIV.Effect, res.TrueEffect)
	}
	if math.Abs(res.FamilyIV.Effect-res.TrueEffect) > math.Abs(res.NaiveOLS.Effect-res.TrueEffect) {
		t.Fatalf("IV (%v) should beat naive (%v) against truth (%v)",
			res.FamilyIV.Effect, res.NaiveOLS.Effect, res.TrueEffect)
	}
}

func TestDiDAndSCAgreeOnDirection(t *testing.T) {
	res, err := RunDiD(context.Background(), parallel.Pool{}, 4, DiDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestCount == 0 {
		t.Fatal("no samples")
	}
	// Both estimators must agree with the ground truth's sign and be within
	// a couple ms of it (the average effect is small by design).
	if res.TrueAverage >= 0 {
		t.Fatalf("expected a net RTT reduction, truth = %v", res.TrueAverage)
	}
	for name, v := range map[string]float64{"DiD": res.PooledDiD.Effect, "SC": res.SCAverage} {
		if v >= 0 {
			t.Fatalf("%s sign disagrees with truth: %v", name, v)
		}
		if math.Abs(v-res.TrueAverage) > 2.5 {
			t.Fatalf("%s = %v too far from truth %v", name, v, res.TrueAverage)
		}
	}
}

func TestTable1ExcludesContaminatedDonors(t *testing.T) {
	// Donor AS36874 (Johannesburg) secretly joins the exchange too. The
	// pipeline must detect the crossing from its traceroutes and drop it
	// from the donor pool rather than let a treated unit serve as control.
	clean, err := RunTable1(context.Background(), parallel.Pool{}, Table1Config{Weeks: 3, JoinWeek: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := RunTable1(context.Background(), parallel.Pool{}, Table1Config{Weeks: 3, JoinWeek: 2, Seed: 5, AlsoJoin: []topo.ASN{36874}})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.NumDonors != clean.NumDonors-1 {
		t.Fatalf("donor pool %d → %d; contaminated donor not excluded", clean.NumDonors, dirty.NumDonors)
	}
	if len(dirty.Rows) != 8 {
		t.Fatalf("rows = %d", len(dirty.Rows))
	}
}

func TestTable1SurvivesBackgroundLinkFlaps(t *testing.T) {
	// Flap a redundant content-side link throughout the study: the
	// estimator must still produce all rows with sane diagnostics.
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := s.Topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	flap := rel.Links[scenario.BigContent][scenario.ZATransitA][1] // Durban leg
	res, err := RunTable1(context.Background(), parallel.Pool{}, Table1Config{
		Weeks: 3, JoinWeek: 2, Seed: 6,
		FlapLink: flap, FlapEveryHours: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Crossed {
			t.Fatalf("unit %v lost treatment detection under churn", row.Unit)
		}
		if math.IsNaN(row.RTTDelta) || math.IsInf(row.RTTDelta, 0) {
			t.Fatalf("unit %v produced %v under churn", row.Unit, row.RTTDelta)
		}
	}
}

func TestPowerCurveShape(t *testing.T) {
	res, err := RunPower(context.Background(), parallel.Pool{}, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Power must be (weakly) increasing in effect size and reach high
	// values for large effects.
	for i := 1; i < len(res.Power); i++ {
		if res.Power[i] < res.Power[i-1]-0.15 {
			t.Fatalf("power curve non-monotone: %v", res.Power)
		}
	}
	if res.Power[len(res.Power)-1] < 0.8 {
		t.Fatalf("5ms effect power = %v", res.Power[len(res.Power)-1])
	}
	if res.MDE80 <= 0 || res.MDE80 > 5 {
		t.Fatalf("MDE = %v", res.MDE80)
	}
	if !strings.Contains(res.Render(), "minimum detectable effect") {
		t.Fatal("render missing MDE")
	}
}

func TestTromboneEraContrast(t *testing.T) {
	res, err := RunTromboneEra(context.Background(), parallel.Pool{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Era.Rows) != 8 || len(res.Modern.Rows) != 8 {
		t.Fatalf("rows: era %d modern %d", len(res.Era.Rows), len(res.Modern.Rows))
	}
	var eraSum, modSum float64
	for i := range res.Era.Rows {
		if !res.Era.Rows[i].Crossed {
			t.Fatalf("era unit %v never crossed", res.Era.Rows[i].Unit)
		}
		eraSum += res.Era.Rows[i].RTTDelta
		modSum += res.Modern.Rows[i].RTTDelta
		// Trombone-era effects are intercontinental-scale drops.
		if res.Era.Rows[i].RTTDelta > -50 {
			t.Fatalf("era unit %v effect only %v ms", res.Era.Rows[i].Unit, res.Era.Rows[i].RTTDelta)
		}
		if res.Era.Rows[i].PValue > 0.1 {
			t.Fatalf("era effect not significant: %v", res.Era.Rows[i])
		}
	}
	// The era effect must dwarf the modern one by at least an order of
	// magnitude — the experiment's entire point.
	if eraSum/modSum < 10 && modSum < 0 {
		t.Fatalf("era mean %v not >>> modern mean %v", eraSum/8, modSum/8)
	}
	if !strings.Contains(res.Render(), "two Internets") {
		t.Fatal("render missing headline")
	}
}
