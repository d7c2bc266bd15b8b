package uncertainty

import (
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/config"
	"repro/internal/core/coretest"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

func newAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(model.FromIPC(ec2.Oregon(), galaxy.App{}), DefaultSources())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSourcesValidation(t *testing.T) {
	if err := (Sources{CapacityRelSD: -1}).Validate(); err == nil {
		t.Fatal("negative sd accepted")
	}
	if err := (Sources{CapacityBias: -1}).Validate(); err == nil {
		t.Fatal("bias of -100% accepted")
	}
	if err := DefaultSources().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzer(nil, DefaultSources()); err == nil {
		t.Fatal("nil capacities accepted")
	}
}

func TestPredictIntervalOrdering(t *testing.T) {
	a := newAnalyzer(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	tuple := config.MustTuple(5, 5, 5, 3, 0, 0, 0, 0, 0)
	pred, err := a.Predict(d, tuple, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range []Interval{pred.TimeSeconds, pred.CostUSD} {
		if !(iv.P05 <= iv.P50 && iv.P50 <= iv.P95) {
			t.Fatalf("quantiles out of order: %+v", iv)
		}
		if iv.P05 <= 0 {
			t.Fatalf("non-positive lower bound: %+v", iv)
		}
	}
	if pred.DeadlineProb != 1 {
		t.Fatalf("no deadline should mean probability 1, got %v", pred.DeadlineProb)
	}
}

func TestBiasShiftsIntervalUp(t *testing.T) {
	// Under-measured capacity (negative bias) means true runs are
	// FASTER than the point prediction: median time below base.
	a := newAnalyzer(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	tuple := config.MustTuple(5, 5, 5, 3, 0, 0, 0, 0, 0)
	base := a.Caps.Predict(d, tuple)
	pred, err := a.Predict(d, tuple, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TimeSeconds.P50 >= float64(base.Time) {
		t.Fatalf("median %v not below biased point prediction %v",
			pred.TimeSeconds.P50, base.Time)
	}
}

func TestDeadlineProbMonotoneInDeadline(t *testing.T) {
	a := newAnalyzer(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	tuple := config.MustTuple(5, 5, 5, 3, 0, 0, 0, 0, 0)
	base := a.Caps.Predict(d, tuple)
	tight, err := a.Predict(d, tuple, base.Time*95/100)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := a.Predict(d, tuple, base.Time*12/10)
	if err != nil {
		t.Fatal(err)
	}
	if loose.DeadlineProb < tight.DeadlineProb {
		t.Fatalf("looser deadline has lower probability: %v vs %v",
			loose.DeadlineProb, tight.DeadlineProb)
	}
	if loose.DeadlineProb < 0.95 {
		t.Fatalf("20%% slack should be nearly certain, got %v", loose.DeadlineProb)
	}
}

func TestPredictDeterministicForSeed(t *testing.T) {
	a := newAnalyzer(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 4000})
	tuple := config.MustTuple(5, 5, 0, 0, 0, 0, 0, 0, 0)
	p1, err := a.Predict(d, tuple, units.FromHours(36))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Predict(d, tuple, units.FromHours(36))
	if err != nil {
		t.Fatal(err)
	}
	if p1.TimeSeconds != p2.TimeSeconds || p1.DeadlineProb != p2.DeadlineProb {
		t.Fatal("prediction not deterministic for fixed seed")
	}
}

func TestPredictRejectsEmptyConfig(t *testing.T) {
	a := newAnalyzer(t)
	_, err := a.Predict(units.GI(1), config.MustTuple(0, 0, 0, 0, 0, 0, 0, 0, 0), 0)
	if err == nil {
		t.Fatal("empty configuration accepted")
	}
}

func TestPredictTooFewSamples(t *testing.T) {
	a := newAnalyzer(t)
	a.Samples = 3
	_, err := a.Predict(units.GI(1), config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0), 0)
	if err == nil {
		t.Fatal("3 samples accepted")
	}
}

func TestRobustMinCost(t *testing.T) {
	eng := coretest.ScanEngine(galaxy.App{})
	a := newAnalyzer(t)
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)
	pred, ok, err := RobustMinCost(eng, a, p, deadline, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no robust configuration found at 95% confidence")
	}
	if pred.DeadlineProb < 0.95 {
		t.Fatalf("robust pick has probability %v < 0.95", pred.DeadlineProb)
	}
	// The robust pick costs at least as much as the point-optimal one
	// (it may need headroom).
	point, okP, err := eng.MinCostForDeadline(p, deadline)
	if err != nil || !okP {
		t.Fatal(okP, err)
	}
	if pred.CostUSD.Mean < float64(point.Cost)*0.9 {
		t.Fatalf("robust cost %v implausibly below point optimum %v",
			pred.CostUSD.Mean, point.Cost)
	}
}

func TestRobustMinCostBadConfidence(t *testing.T) {
	eng := coretest.ScanEngine(galaxy.App{})
	a := newAnalyzer(t)
	if _, _, err := RobustMinCost(eng, a, workload.Params{N: 65536, A: 8000},
		units.FromHours(24), 1.5); err == nil {
		t.Fatal("confidence > 1 accepted")
	}
}

func TestIntervalHelper(t *testing.T) {
	iv := interval([]float64{1, 2, 3, 4, 5})
	if iv.P50 != 3 || math.Abs(iv.Mean-3) > 1e-12 {
		t.Fatalf("interval = %+v", iv)
	}
}
