// Regression tests pinning the headline reproduction numbers recorded
// in EXPERIMENTS.md. Everything here is deterministic; if a change
// moves one of these values, EXPERIMENTS.md must move with it —
// deliberately, not silently.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestRegressionFig4Galaxy(t *testing.T) {
	eng := coretest.PaperEngine(galaxy.App{})
	res, err := sweep.Census(eng, workload.Params{N: 65536, A: 8000},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Total != 10077695 {
		t.Errorf("space size = %d, want 10077695 (Eq. 1)", an.Total)
	}
	if an.Feasible != 7916146 {
		t.Errorf("galaxy feasible = %d, want 7916146 (EXPERIMENTS.md)", an.Feasible)
	}
	if len(an.Frontier) != 77 {
		t.Errorf("galaxy frontier = %d points, want 77", len(an.Frontier))
	}
	lo, hi, _ := an.CostSpan()
	if math.Abs(float64(lo)-97.49) > 0.01 || math.Abs(float64(hi)-133.80) > 0.01 {
		t.Errorf("galaxy frontier span = $%.2f..$%.2f, want $97.49..$133.80", float64(lo), float64(hi))
	}
}

func TestRegressionFig4Sand(t *testing.T) {
	eng := coretest.PaperEngine(sand.App{})
	res, err := sweep.Census(eng, workload.Params{N: 8192e6, A: 0.32},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Feasible != 543966 {
		t.Errorf("sand feasible = %d, want 543966", an.Feasible)
	}
	if len(an.Frontier) != 51 {
		t.Errorf("sand frontier = %d points, want 51 (paper: 58)", len(an.Frontier))
	}
}

// paperSpill is the paper's Figure 6(a) annotation for galaxy(65536,
// 8000) at 24 h: c4 saturated, spilling three m4.large nodes.
var paperSpill = config.MustTuple(5, 5, 5, 3, 0, 0, 0, 0, 0)

// requirePaperSpillFamily asserts that got is the paper's annotated
// spill up to the float spelling of one machine mix: its capacity and
// unit cost equal those of [5,5,5,3,0,0,0,0,0] to within 2 ulp, so
// the Figure 6(a) check keeps its meaning while the exact argmin is
// the oracle's tuple.
func requirePaperSpillFamily(t *testing.T, eng *core.Engine, got config.Tuple) {
	t.Helper()
	caps := eng.Capacities()
	within2ulp := func(a, b float64) bool {
		return math.Abs(a-b) <= 2*(math.Nextafter(b, math.Inf(1))-b)
	}
	if u, w := float64(caps.Capacity(got)), float64(caps.Capacity(paperSpill)); !within2ulp(u, w) {
		t.Errorf("%s capacity %v is not the paper spill's %v", got, u, w)
	}
	if c, w := float64(caps.UnitCost(got)), float64(caps.UnitCost(paperSpill)); !within2ulp(c, w) {
		t.Errorf("%s unit cost %v is not the paper spill's %v", got, c, w)
	}
}

func TestRegressionPaperSpill(t *testing.T) {
	eng := coretest.PaperEngine(galaxy.App{})
	pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: 8000}, units.FromHours(24))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	// The exact argmin (the exhaustive scan's tie winner) spells the
	// paper's spill as one m4.large plus one m4.xlarge, one ulp cheaper.
	if pred.Config.String() != "[5,5,5,1,1,0,0,0,0]" {
		t.Errorf("spill config = %s, want the exhaustive argmin [5,5,5,1,1,0,0,0,0]", pred.Config)
	}
	requirePaperSpillFamily(t, eng, pred.Config)
	if math.Abs(float64(pred.Cost)-97.49) > 0.01 {
		t.Errorf("min cost = %v, want ~$97.49", pred.Cost)
	}
}

func TestRegressionObs3(t *testing.T) {
	engG := coretest.PaperEngine(galaxy.App{})
	g, err := sweep.Tightening(engG, workload.Params{N: 262144, A: 1000}, []units.Hours{24, 48, 72})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.CostRisePct-25.22) > 0.1 {
		t.Errorf("galaxy Obs3 rise = %.2f%%, want ~25.2%% (paper: 40%%)", g.CostRisePct)
	}
	engS := coretest.PaperEngine(sand.App{})
	s, err := sweep.Tightening(engS, workload.Params{N: 8192e6, A: 0.32}, []units.Hours{24, 48})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.CostRisePct-16.42) > 0.1 {
		t.Errorf("sand Obs3 rise = %.2f%%, want ~16.4%% (paper: 25%%)", s.CostRisePct)
	}
}

func TestRegressionFig6Annotations(t *testing.T) {
	// The 24 h galaxy accuracy curve's configuration progression.
	eng := coretest.PaperEngine(galaxy.App{})
	want := map[float64]string{
		1000: "[0,3,0,0,0,0,0,0,0]",
		6000: "[0,5,5,0,0,0,0,0,0]",
		8000: "[5,5,5,1,1,0,0,0,0]", // the paper's annotated spill, exact spelling
	}
	for s, cfg := range want {
		pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: s}, units.FromHours(24))
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		if pred.Config.String() != cfg {
			t.Errorf("s=%g: config %s, want %s", s, pred.Config, cfg)
		}
		if s == 8000 {
			requirePaperSpillFamily(t, eng, pred.Config)
		}
	}
}
