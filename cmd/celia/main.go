// Command celia runs the full CELIA pipeline for one elastic
// application and problem: it searches the cloud configuration space
// for configurations meeting a time deadline and cost budget, and
// reports the census and the cost-time Pareto-optimal frontier.
//
// Example:
//
//	celia -app galaxy -n 65536 -a 8000 -deadline 24 -budget 350
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia: ")
	var (
		appName  = flag.String("app", "galaxy", fmt.Sprintf("elastic application %v", cli.AppNames()))
		n        = flag.Float64("n", 65536, "problem size n")
		a        = flag.Float64("a", 8000, "accuracy a (x264: f, galaxy: s, sand: t)")
		deadline = flag.Float64("deadline", 24, "time deadline T' in hours (0 = unconstrained)")
		budget   = flag.Float64("budget", 350, "cost budget C' in dollars (0 = unconstrained)")
		measured = flag.Bool("measured", false, "run the full measurement pipeline (baseline runs + fitting) instead of ground-truth characterizations")
		sample   = flag.Uint64("sample", 0, "emit every k-th feasible point as CSV to stdout (0 = off)")
		maxRows  = flag.Int("frontier", 30, "max frontier rows to print")
	)
	flag.Parse()

	app, err := cli.LookupApp(*appName)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cli.BuildEngine(app, *measured)
	if err != nil {
		log.Fatal(err)
	}
	// One census per run: a single exhaustive scan is cheaper than the
	// frontier-index build it would amortize, and returns the same
	// Analysis bit for bit.
	eng.SetUseIndex(false)
	p := workload.Params{N: *n, A: *a}
	cons := core.Constraints{Deadline: units.FromHours(*deadline), Budget: units.USD(*budget)}
	res, err := sweep.Census(eng, p, cons.Deadline, cons.Budget, *sample)
	if err != nil {
		log.Fatal(err)
	}
	an := res.Analysis

	fmt.Printf("application    %s, %s = %g, %s = %g\n", app.Name(), "n", p.N, app.AccuracyName(), p.A)
	fmt.Printf("demand         %v\n", an.Demand)
	fmt.Printf("constraints    T' = %g h, C' = $%g\n", *deadline, *budget)
	fmt.Printf("configurations %d total, %d feasible\n", an.Total, an.Feasible)
	lo, hi, ratio := an.CostSpan()
	fmt.Printf("frontier       %d Pareto-optimal, cost %v .. %v (%.2fx), saving up to %.0f%%\n\n",
		len(an.Frontier), lo, hi, ratio, res.SavingPct)

	tb := report.NewTable("Pareto-optimal configurations (time ascending)",
		"config [c4 c4x c42x | m4 m4x m42x | r3 r3x r32x]", "time (h)", "cost ($)")
	for i, f := range an.Frontier {
		if i >= *maxRows {
			tb.AddRow(fmt.Sprintf("... %d more", len(an.Frontier)-i), "", "")
			break
		}
		tb.AddRow(f.Config.String(), f.Time.Hours(), float64(f.Cost))
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *sample > 0 {
		fmt.Println("\nfeasible sample (CSV):")
		csvT := report.NewTable("", "time_h", "cost_usd", "config")
		for _, s := range an.Sample {
			csvT.AddRow(s.Time.Hours(), float64(s.Cost), s.Config.String())
		}
		if err := csvT.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
