package core_test

import (
	"fmt"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

// engine is the paper's galaxy setup, core.NewPaperEngine(galaxy.App{}),
// shared with the package's tests so the frontier index behind every
// query is built once.
var engine = core.SharedPaperEngine(galaxy.App{})

// ExampleEngine_MinCostForDeadline reproduces the paper's Figure 6(a)
// annotation: the cheapest configuration for galaxy(65536, 8000) at a
// 24-hour deadline saturates the c4 category and spills into m4. (The
// paper prints the spill as [5,5,5,3,0,0,0,0,0], three m4.large; the
// exact argmin buys the same capacity at the same price as one m4.large
// plus one m4.xlarge, which rounds one ulp cheaper.)
func ExampleEngine_MinCostForDeadline() {
	pred, ok, err := engine.MinCostForDeadline(
		workload.Params{N: 65536, A: 8000}, units.FromHours(24))
	if err != nil || !ok {
		panic(err)
	}
	fmt.Printf("%v at %v\n", pred.Config, pred.Cost)
	// Output: [5,5,5,1,1,0,0,0,0] at $97.49
}

// ExampleEngine_Analyze runs Algorithm 1 over the full ten-million
// configuration space and Pareto-filters the feasible set.
func ExampleEngine_Analyze() {
	analysis, err := engine.Analyze(
		workload.Params{N: 65536, A: 8000},
		core.Constraints{Deadline: units.FromHours(24), Budget: 350},
		core.Options{})
	if err != nil {
		panic(err)
	}
	lo, hi, _ := analysis.CostSpan()
	fmt.Printf("%d configurations, %d feasible, %d Pareto-optimal (%v..%v)\n",
		analysis.Total, analysis.Feasible, len(analysis.Frontier), lo, hi)
	// Output: 10077695 configurations, 7916146 feasible, 77 Pareto-optimal ($97.49..$133.80)
}

// ExampleEngine_MaxAccuracy answers the elastic-application question:
// how much accuracy does a fixed deadline and budget buy?
func ExampleEngine_MaxAccuracy() {
	p, _, ok, err := engine.MaxAccuracy(65536,
		core.Constraints{Deadline: units.FromHours(24), Budget: 50}, 1e-3)
	if err != nil || !ok {
		panic(err)
	}
	fmt.Printf("within $50 and 24h: about %d simulation steps\n", int(p.A/100)*100)
	// Output: within $50 and 24h: about 4200 simulation steps
}
