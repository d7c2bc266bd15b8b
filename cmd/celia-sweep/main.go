// Command celia-sweep regenerates the paper's model-based analyses:
// the Figure 4 configuration-space census, the Figure 5 problem-size
// scaling and Figure 6 accuracy scaling curves, and the Observation 3
// deadline-tightening study.
//
// Example:
//
//	celia-sweep -exp fig4
//	celia-sweep -exp fig5 -csv
//	celia-sweep -exp fig6
//	celia-sweep -exp obs3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

var csvOut bool

// newEngine builds a paper engine. The sweeps re-solve the same catalog
// under dozens of (demand, deadline) pairs, exactly the workload the
// engine's demand-invariant frontier index amortizes.
func newEngine(app workload.App) *core.Engine {
	eng := core.NewPaperEngine(app)
	if reason := eng.IndexBypassReason(); reason != "" {
		log.Printf("warning: frontier index bypassed for %s: %s", app.Name(), reason)
	}
	return eng
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-sweep: ")
	exp := flag.String("exp", "fig4", "experiment: fig4, fig5, fig6, obs3")
	flag.BoolVar(&csvOut, "csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	switch *exp {
	case "fig4":
		fig4()
	case "fig5":
		fig5()
	case "fig6":
		fig6()
	case "obs3":
		obs3()
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func write(tb *report.Table) {
	if csvOut {
		if err := tb.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		return
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func fig4() {
	cases := []struct {
		eng *core.Engine
		p   workload.Params
	}{
		{newEngine(galaxy.App{}), workload.Params{N: 65536, A: 8000}},
		{newEngine(sand.App{}), workload.Params{N: 8192e6, A: 0.32}},
	}
	for _, c := range cases {
		res, err := sweep.Census(c.eng, c.p, units.FromHours(24), 350, 0)
		if err != nil {
			log.Fatal(err)
		}
		an := res.Analysis
		lo, hi, ratio := an.CostSpan()
		fmt.Printf("Figure 4 %s%v, T'=24h, C'=$350\n", c.eng.DemandModel().AppName, c.p)
		fmt.Printf("  feasible: %d of %d\n", an.Feasible, an.Total)
		fmt.Printf("  Pareto-optimal: %d, cost %v..%v (%.2fx span), Obs1 saving %.0f%%\n",
			len(an.Frontier), lo, hi, ratio, res.SavingPct)
		tb := report.NewTable("  frontier", "config", "time (h)", "cost ($)")
		for _, f := range an.Frontier {
			tb.AddRow(f.Config.String(), f.Time.Hours(), float64(f.Cost))
		}
		write(tb)
	}
	fmt.Println("paper: ~5.8M/2M feasible; 23/58 Pareto points; cost spans $126-167 / $180-210")
}

func scalingTable(title string, res sweep.ScalingResult) *report.Table {
	headers := []string{res.VaryName}
	for _, d := range res.Deadlines {
		headers = append(headers, fmt.Sprintf("%.0fh ($)", d))
	}
	headers = append(headers, "config @24h")
	tb := report.NewTable(title, headers...)
	for vi, v := range res.Values {
		cells := []interface{}{fmt.Sprintf("%g", v)}
		var cfg24 string
		for di, d := range res.Deadlines {
			pt := res.Points[di][vi]
			if pt.Feasible {
				cells = append(cells, float64(pt.Cost))
			} else {
				cells = append(cells, "-")
			}
			//lint:allow floateq d iterates the literal deadline table; 24 is bit-exact
			if d == 24 && pt.Feasible {
				cfg24 = pt.Config
			}
		}
		cells = append(cells, cfg24)
		tb.AddRow(cells...)
	}
	return tb
}

func fig5() {
	engG := newEngine(galaxy.App{})
	resG, err := sweep.MinCostCurve(engG, workload.Params{A: 1000}, true, "n",
		[]float64{32768, 65536, 131072, 262144}, sweep.Deadlines())
	if err != nil {
		log.Fatal(err)
	}
	write(scalingTable("Figure 5(a): galaxy min cost vs n (s=1000)", resG))

	engS := newEngine(sand.App{})
	resS, err := sweep.MinCostCurve(engS, workload.Params{A: 0.32}, true, "n",
		[]float64{1024e6, 2048e6, 4096e6, 8192e6}, sweep.Deadlines())
	if err != nil {
		log.Fatal(err)
	}
	write(scalingTable("Figure 5(b): sand min cost vs n (t=0.32)", resS))
	fmt.Println("paper: quadratic cost growth (galaxy), linear (sand); jumps where a new category is engaged")
}

func fig6() {
	engG := newEngine(galaxy.App{})
	resG, err := sweep.MinCostCurve(engG, workload.Params{N: 65536}, false, "s",
		[]float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}, sweep.Deadlines())
	if err != nil {
		log.Fatal(err)
	}
	write(scalingTable("Figure 6(a): galaxy min cost vs s (n=65536)", resG))
	if jumps := sweep.GradientJumps(resG.Points[2], 1.15); len(jumps) > 0 {
		for _, j := range jumps {
			fmt.Printf("  gradient jump on the 24h curve at s=%g: config %s (category spill, Obs 2)\n",
				resG.Points[2][j].Value, resG.Points[2][j].Config)
		}
		fmt.Println()
	}

	engS := newEngine(sand.App{})
	resS, err := sweep.MinCostCurve(engS, workload.Params{N: 8192e6}, false, "t",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, sweep.Deadlines())
	if err != nil {
		log.Fatal(err)
	}
	write(scalingTable("Figure 6(b): sand min cost vs t (n=8192M)", resS))
	fmt.Println("paper: linear cost in s (galaxy), logarithmic in t (sand); 1.6x sand accuracy for ~20% cost")
}

func obs3() {
	engG := newEngine(galaxy.App{})
	g, err := sweep.Tightening(engG, workload.Params{N: 262144, A: 1000}, sweep.Deadlines())
	if err != nil {
		log.Fatal(err)
	}
	tb := report.NewTable("Observation 3: galaxy(262144, 1000)", "deadline (h)", "min cost ($)", "config")
	for _, pt := range g.Points {
		if pt.Feasible {
			tb.AddRow(float64(pt.DeadlineHours), float64(pt.Cost), pt.Config)
		} else {
			tb.AddRow(float64(pt.DeadlineHours), "-", "infeasible")
		}
	}
	write(tb)
	fmt.Printf("galaxy: cutting the deadline %.0f%% raises cost %.0f%% (paper: 67%% -> +40%%)\n\n",
		g.DeadlineCutPct, g.CostRisePct)

	engS := newEngine(sand.App{})
	s, err := sweep.Tightening(engS, workload.Params{N: 8192e6, A: 0.32}, []units.Hours{24, 48})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sand: cutting the deadline %.0f%% raises cost %.0f%% (paper: 50%% -> +25%%)\n",
		s.DeadlineCutPct, s.CostRisePct)
}
