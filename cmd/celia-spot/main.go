// Command celia-spot runs the spot-market extension: it takes CELIA's
// Pareto frontier for a problem and prices each optimal configuration
// on a simulated spot market, reporting expected cost, interruption
// exposure, and deadline-satisfaction probability, then recommends
// spot or on-demand execution.
//
// Example:
//
//	celia-spot -app galaxy -n 65536 -a 8000 -deadline 24 -confidence 0.9
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/spot"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-spot: ")
	var (
		appName    = flag.String("app", "galaxy", fmt.Sprintf("elastic application %v", cli.AppNames()))
		n          = flag.Float64("n", 65536, "problem size n")
		a          = flag.Float64("a", 8000, "accuracy a")
		deadline   = flag.Float64("deadline", 24, "time deadline in hours")
		budget     = flag.Float64("budget", 350, "cost budget in dollars")
		confidence = flag.Float64("confidence", 0.9, "required deadline-satisfaction probability on spot")
		seed       = flag.Uint64("seed", 7, "spot market seed")
		maxRows    = flag.Int("rows", 12, "max frontier rows to price")
	)
	flag.Parse()

	app, err := cli.LookupApp(*appName)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cli.BuildEngine(app, false)
	if err != nil {
		log.Fatal(err)
	}
	// One census per run: a single exhaustive scan is cheaper than the
	// frontier-index build it would amortize, and returns the same
	// Analysis bit for bit.
	eng.SetUseIndex(false)
	p := workload.Params{N: *n, A: *a}
	dl := units.FromHours(*deadline)
	an, err := eng.Analyze(p, core.Constraints{Deadline: dl, Budget: units.USD(*budget)}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if len(an.Frontier) == 0 {
		log.Fatal("no feasible configurations")
	}

	market, err := spot.NewMarket(eng.Capacities().Catalog(), spot.DefaultMarket(), *seed)
	if err != nil {
		log.Fatal(err)
	}
	ev := spot.NewEvaluator(market, eng.Capacities())
	d, err := eng.Demand(p)
	if err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable(
		fmt.Sprintf("spot pricing of the %s%v Pareto frontier (T'=%gh)", app.Name(), p, *deadline),
		"config", "on-demand ($)", "E[spot] ($)", "E[interruptions]", "P(meet deadline)")
	var candidates []core.FrontierPoint
	for i, f := range an.Frontier {
		if i >= *maxRows {
			break
		}
		candidates = append(candidates, f)
		plan, err := ev.Evaluate(d, f.Config, dl)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(f.Config.String(), float64(plan.OnDemandCost),
			float64(plan.ExpectedSpotCost), plan.Interruptions, plan.DeadlineProb)
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	rec, err := ev.Recommend(d, frontierConfigs(candidates), dl, *confidence)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if rec.UseSpot {
		fmt.Printf("recommendation: SPOT %v — E[cost] %v vs on-demand %v (%.0f%% saving), P(deadline) = %.2f\n",
			rec.Spot.Config, rec.Spot.ExpectedSpotCost, rec.OnDemand.OnDemandCost,
			rec.SavingPct, rec.Spot.DeadlineProb)
	} else {
		fmt.Printf("recommendation: ON-DEMAND %v at %v — no spot plan meets %.0f%% deadline confidence with savings\n",
			rec.OnDemand.Config, rec.OnDemand.OnDemandCost, *confidence*100)
	}
	fmt.Println("\n(The paper targets on-demand resources precisely because spot interruptions")
	fmt.Println(" threaten deadlines; this extension quantifies that trade-off.)")
}

func frontierConfigs(frontier []core.FrontierPoint) []config.Tuple {
	out := make([]config.Tuple, len(frontier))
	for i, f := range frontier {
		out[i] = f.Config
	}
	return out
}
