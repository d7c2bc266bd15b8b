package spot

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/x264"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

func newMarket(t *testing.T) *Market {
	t.Helper()
	m, err := NewMarket(ec2.Oregon(), DefaultMarket(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMarketValidation(t *testing.T) {
	if _, err := NewMarket(nil, DefaultMarket(), 1); err == nil {
		t.Fatal("nil catalog accepted")
	}
	bad := DefaultMarket()
	bad.MeanFraction = 0
	if _, err := NewMarket(ec2.Oregon(), bad, 1); err == nil {
		t.Fatal("zero mean fraction accepted")
	}
	bad = DefaultMarket()
	bad.StepMinutes = 0
	if _, err := NewMarket(ec2.Oregon(), bad, 1); err == nil {
		t.Fatal("zero step accepted")
	}
	bad = DefaultMarket()
	bad.SpikeProb = 1.5
	if _, err := NewMarket(ec2.Oregon(), bad, 1); err == nil {
		t.Fatal("spike probability > 1 accepted")
	}
}

func TestHistoryDeterministicAndBounded(t *testing.T) {
	m := newMarket(t)
	h1 := m.History(0, units.FromHours(24))
	h2 := m.History(0, units.FromHours(24))
	if len(h1) != len(h2) || len(h1) < 100 {
		t.Fatalf("history lengths %d/%d", len(h1), len(h2))
	}
	onDemand := float64(ec2.Oregon().Type(0).Price)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("history not deterministic")
		}
		p := float64(h1[i])
		if p <= 0 || p > 10*onDemand {
			t.Fatalf("price %v out of bounds", p)
		}
	}
}

func TestHistoryMeanNearTarget(t *testing.T) {
	m := newMarket(t)
	h := m.History(0, units.FromHours(24*30))
	var sum float64
	for _, p := range h {
		sum += float64(p)
	}
	mean := sum / float64(len(h))
	onDemand := float64(ec2.Oregon().Type(0).Price)
	frac := mean / onDemand
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("long-run spot fraction %.2f, want near %.2f", frac, DefaultMarket().MeanFraction)
	}
}

func TestHistoriesDifferByType(t *testing.T) {
	m := newMarket(t)
	h0 := m.History(0, units.FromHours(6))
	h5 := m.History(5, units.FromHours(6))
	same := true
	for i := range h0 {
		if float64(h0[i])/float64(ec2.Oregon().Type(0).Price) !=
			float64(h5[i])/float64(ec2.Oregon().Type(5).Price) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different types share an identical normalized price path")
	}
}

func TestInterruptionRateMonotoneInBid(t *testing.T) {
	m := newMarket(t)
	horizon := units.FromHours(24 * 7)
	onDemand := units.USDPerHour(ec2.Oregon().Type(0).Price)
	low := m.InterruptionRate(0, horizon, onDemand*0.2)
	mid := m.InterruptionRate(0, horizon, onDemand)
	high := m.InterruptionRate(0, horizon, onDemand*20)
	if !(low >= mid && mid >= high) {
		t.Fatalf("interruption rate not monotone in bid: %v %v %v", low, mid, high)
	}
	if high != 0 {
		t.Fatalf("absurdly high bid still interrupted: %v", high)
	}
	if low <= 0 {
		t.Fatal("lowball bid never interrupted")
	}
}

func TestQuantileOrdering(t *testing.T) {
	m := newMarket(t)
	horizon := units.FromHours(24 * 7)
	q1 := float64(m.Quantile(0, horizon, 0.1))
	q5 := float64(m.Quantile(0, horizon, 0.5))
	q9 := float64(m.Quantile(0, horizon, 0.9))
	if !(q1 <= q5 && q5 <= q9) {
		t.Fatalf("quantiles out of order: %v %v %v", q1, q5, q9)
	}
}

func TestEvaluatePlan(t *testing.T) {
	m := newMarket(t)
	caps := model.FromIPC(ec2.Oregon(), galaxy.App{})
	e := NewEvaluator(m, caps)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 4000})
	tuple := config.MustTuple(5, 5, 0, 0, 0, 0, 0, 0, 0)
	plan, err := e.Evaluate(d, tuple, units.FromHours(48))
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExpectedTime < plan.BaseTime {
		t.Fatal("expected time below uninterrupted time")
	}
	if plan.ExpectedSpotCost <= 0 || plan.OnDemandCost <= 0 {
		t.Fatalf("non-positive costs: %+v", plan)
	}
	// Spot should be much cheaper in expectation at default market.
	if float64(plan.ExpectedSpotCost) > 0.8*float64(plan.OnDemandCost) {
		t.Fatalf("spot cost %v not meaningfully below on-demand %v",
			plan.ExpectedSpotCost, plan.OnDemandCost)
	}
	if plan.DeadlineProb <= 0 || plan.DeadlineProb > 1 {
		t.Fatalf("deadline probability %v", plan.DeadlineProb)
	}
}

func TestEvaluateRejectsEmptyConfig(t *testing.T) {
	m := newMarket(t)
	caps := model.FromIPC(ec2.Oregon(), galaxy.App{})
	e := NewEvaluator(m, caps)
	_, err := e.Evaluate(units.GI(100), config.MustTuple(0, 0, 0, 0, 0, 0, 0, 0, 0), units.FromHours(1))
	if err == nil {
		t.Fatal("empty configuration accepted")
	}
}

func TestEvaluateRejectsBadEvaluator(t *testing.T) {
	m := newMarket(t)
	caps := model.FromIPC(ec2.Oregon(), galaxy.App{})
	e := NewEvaluator(m, caps)
	e.Checkpoint = 0
	_, err := e.Evaluate(units.GI(100), config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0), units.FromHours(1))
	if err == nil {
		t.Fatal("zero checkpoint accepted")
	}
}

func TestDeadlineProbabilityBasics(t *testing.T) {
	// Base beyond deadline: impossible.
	if p := deadlineProbability(10, 5, 0.1, 1); p != 0 {
		t.Fatalf("p = %v, want 0", p)
	}
	// No interruptions: certain.
	if p := deadlineProbability(5, 10, 0, 1); p != 1 {
		t.Fatalf("p = %v, want 1", p)
	}
	// More slack → higher probability.
	p1 := deadlineProbability(5, 6, 0.01, 10)
	p2 := deadlineProbability(5, 50, 0.01, 10)
	if p2 <= p1 {
		t.Fatalf("more slack did not raise probability: %v vs %v", p1, p2)
	}
}

func TestDeadlineProbabilityMonotoneProperty(t *testing.T) {
	f := func(rate8 uint8, penalty8 uint8) bool {
		rate := float64(rate8%100) / 1e5
		penalty := units.Seconds(penalty8%50) + 1
		p1 := deadlineProbability(10, 20, rate, penalty)
		p2 := deadlineProbability(10, 40, rate, penalty)
		return p2 >= p1-1e-12 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendFromFrontier(t *testing.T) {
	// The realistic workflow: take CELIA's Pareto frontier, then let
	// the spot evaluator decide on-demand vs spot.
	eng := coretest.ScanEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)
	an, err := eng.Analyze(p, core.Constraints{Deadline: deadline, Budget: 350}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var candidates []config.Tuple
	for _, f := range an.Frontier {
		candidates = append(candidates, f.Config)
	}
	m := newMarket(t)
	e := NewEvaluator(m, eng.Capacities())
	d, _ := eng.Demand(p)
	rec, err := e.Recommend(d, candidates, deadline, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rec.OnDemand.OnDemandCost) <= 0 {
		t.Fatal("no on-demand recommendation")
	}
	if rec.UseSpot {
		if rec.Spot.DeadlineProb < 0.9 {
			t.Fatalf("spot recommendation below confidence: %v", rec.Spot.DeadlineProb)
		}
		if rec.SavingPct <= 0 {
			t.Fatalf("spot recommended without savings: %v", rec.SavingPct)
		}
	}
}

func TestRecommendNoCandidates(t *testing.T) {
	m := newMarket(t)
	e := NewEvaluator(m, model.FromIPC(ec2.Oregon(), galaxy.App{}))
	if _, err := e.Recommend(units.GI(1), nil, units.FromHours(1), 0.9); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestRecommendImpossibleDeadline(t *testing.T) {
	m := newMarket(t)
	eng := coretest.ScanEngine(galaxy.App{})
	e := NewEvaluator(m, eng.Capacities())
	d, _ := eng.Demand(workload.Params{N: 262144, A: 10000})
	_, err := e.Recommend(d, []config.Tuple{config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0)},
		units.FromHours(1), 0.9)
	if err == nil {
		t.Fatal("impossible deadline accepted")
	}
}

func TestQuantileSortedHelper(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := quantileSorted(xs, 0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
}

func TestInterruptionTraceTargetsTupleOrder(t *testing.T) {
	// A bid below the market floor is out-priced at step 0: every
	// instance of every provisioned type dies at t=0, numbered exactly
	// as the simulator provisions them (tuple order).
	m := newMarket(t)
	tuple := config.MustTuple(2, 0, 1, 0, 0, 0, 0, 0, 0)
	tr := m.InterruptionTrace(tuple, 0.001, units.FromHours(2))
	if tr.Len() != 3 {
		t.Fatalf("trace has %d events, want 3 (all instances)", tr.Len())
	}
	if err := tr.Validate(3); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range tr.Events() {
		if e.At != 0 {
			t.Fatalf("hopeless bid interrupted at %v, want 0", e.At)
		}
		seen[e.Instance] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Fatalf("instance %d missing from trace %v", i, tr)
		}
	}
}

func TestInterruptionTraceBidAboveMarketIsEmpty(t *testing.T) {
	// Bidding 10× on-demand clears every spike: no interruptions.
	m := newMarket(t)
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	tr := m.InterruptionTrace(tuple, 10.001, units.FromHours(48))
	if !tr.Empty() {
		t.Fatalf("sky-high bid still interrupted: %v", tr)
	}
}

func TestInterruptionTraceWholeTypeDiesTogether(t *testing.T) {
	// All instances of one type share its price history, so they die at
	// the same instant; a bid near the long-run mean is crossed within a
	// long horizon.
	m := newMarket(t)
	tuple := config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)
	tr := m.InterruptionTrace(tuple, 0.26, units.FromHours(72))
	if tr.Empty() {
		t.Skip("market never crossed a mean-level bid over 72h (seed-dependent)")
	}
	if tr.Len() != 3 {
		t.Fatalf("partial type loss: %d events, want all 3 instances", tr.Len())
	}
	at := tr.Events()[0].At
	for _, e := range tr.Events() {
		if e.At != at {
			t.Fatalf("type instances die at different times: %v", tr)
		}
	}
	// Deterministic replay.
	again := m.InterruptionTrace(tuple, 0.26, units.FromHours(72))
	if again.Len() != tr.Len() || again.Events()[0] != tr.Events()[0] {
		t.Fatal("interruption trace not deterministic")
	}
}

func TestInterruptionTraceDrivesSimulatorTermination(t *testing.T) {
	// The derived trace feeds straight into the simulator: a strict
	// gang-scheduled job dies on a spot interruption, and a recovering
	// independent job survives when one of its two types is reclaimed.
	m := newMarket(t)
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	tr := m.InterruptionTrace(tuple, 0.001, units.FromHours(2))
	opts := cloudsim.DefaultOptions()
	opts.Trace = tr
	if _, err := cloudsim.Run(galaxy.App{}, workload.Params{N: 2048, A: 10}, tuple, cat, opts); err == nil {
		t.Fatal("strict BSP run survived a spot reclaim of its whole cluster")
	}
	opts.Recovery = faults.Recovery{Mode: faults.Recover, Respawn: true}
	res, err := cloudsim.Run(x264.App{}, workload.Params{N: 16, A: 20}, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Respawned != tr.Len() {
		t.Fatalf("respawned %d of %d reclaimed instances", res.Respawned, tr.Len())
	}
}
