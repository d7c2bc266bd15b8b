// Command celia-schedule solves an optimal scaling schedule over a
// demand trace and compares it against the reactive autoscaler
// baseline. Traces come from a file (or stdin), or from the built-in
// seeded generators.
//
// Example:
//
//	celia-schedule -app galaxy -gen diurnal -steps 288 -step 300
//	celia-schedule -app galaxy -gen bursty -emit > bursty.json
//	celia-schedule -app galaxy -trace bursty.json -billing perhour -json
//	celia-schedule -app galaxy -gen diurnal -hazard 0.05 -trials 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/autoscale"
	"repro/internal/cli"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

var (
	appName   = flag.String("app", "galaxy", "application to schedule (x264, galaxy, sand)")
	tracePath = flag.String("trace", "", "demand-trace JSON file, or - for stdin (overrides -gen)")
	gen       = flag.String("gen", "diurnal", "synthetic generator: diurnal, bursty, ramp")
	emit      = flag.Bool("emit", false, "write the trace JSON to stdout and exit without solving")
	billing   = flag.String("billing", "persecond", "billing policy: persecond, perhour")
	boot      = flag.Float64("boot", float64(schedule.DefaultBoot), "node boot time in seconds")
	jsonOut   = flag.Bool("json", false, "emit the solved schedule as JSON instead of a summary table")
	timeline  = flag.Int("timeline", 12, "per-step rows to print in table mode (0 = none)")

	steps  = flag.Int("steps", 288, "generator: trace length in steps")
	step   = flag.Float64("step", 300, "generator: step length in seconds")
	aParam = flag.Float64("a", 50, "generator: accuracy/quality parameter held across the trace")
	baseN  = flag.Float64("base", 6_000, "generator: baseline problem size (FromN for ramp)")
	peakN  = flag.Float64("peak", 60_000, "generator: peak problem size (ToN for ramp)")
	period = flag.Int("period", 288, "diurnal: steps per cycle (0 = one cycle)")
	jitter = flag.Float64("jitter", 0.04, "generator: multiplicative noise fraction")
	seed   = flag.Uint64("seed", 0x20170417, "generator: deterministic seed")
	burstN = flag.Float64("burst", 40_000, "bursty: size added at each burst onset")
	onset  = flag.Float64("onset", 0.02, "bursty: per-step probability of a new burst")
	decay  = flag.Int("decay", 12, "bursty: steps for a burst to halve")

	hazard = flag.Float64("hazard", 0, "per-instance-hour failure rate λ (0 = skip risk)")
	trials = flag.Int("trials", 0, "risk: Monte-Carlo trials per sampled step (0 = default)")
	every  = flag.Int("every", 8, "risk: sample each N-th step of the timeline")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-schedule: ")
	flag.Parse()

	tr, err := loadTrace()
	if err != nil {
		log.Fatal(err)
	}
	if *emit {
		if err := tr.Encode(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	app, err := cli.LookupApp(*appName)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cli.BuildEngine(app, false)
	if err != nil {
		log.Fatal(err)
	}
	switch *billing {
	case "persecond":
		eng.SetBilling(model.PerSecond)
	case "perhour":
		eng.SetBilling(model.PerHour)
	default:
		log.Fatalf("unknown billing %q (persecond, perhour)", *billing)
	}

	pol := schedule.PolicyFor(eng)
	pol.Boot = units.Seconds(*boot)
	solved, err := schedule.Solve(eng, tr, pol)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := schedule.Reactive(eng, tr, pol, autoscale.DefaultPolicy())
	if err != nil {
		log.Fatal(err)
	}

	var riskPts []schedule.RiskPoint
	if *hazard > 0 {
		riskPts, err = schedule.RiskTimeline(app, eng, tr, solved, schedule.RiskOptions{
			HazardPerHour: *hazard, Trials: *trials, Every: *every, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	if *jsonOut {
		writeJSON(tr, solved, baseline, riskPts)
		return
	}
	writeTable(tr, solved, baseline, riskPts)
}

func loadTrace() (demand.Trace, error) {
	if *tracePath != "" {
		r := os.Stdin
		if *tracePath != "-" {
			f, err := os.Open(*tracePath)
			if err != nil {
				return demand.Trace{}, err
			}
			defer f.Close()
			r = f
		}
		return demand.DecodeTrace(r)
	}
	switch *gen {
	case "diurnal":
		return demand.Diurnal(demand.DiurnalSpec{
			Steps: *steps, Step: units.Seconds(*step), A: *aParam,
			BaseN: *baseN, PeakN: *peakN, Period: *period,
			Jitter: *jitter, Seed: *seed,
		}), nil
	case "bursty":
		return demand.Bursty(demand.BurstySpec{
			Steps: *steps, Step: units.Seconds(*step), A: *aParam,
			BaseN: *baseN, BurstN: *burstN, Onset: *onset, Decay: *decay,
			Jitter: *jitter, Seed: *seed,
		}), nil
	case "ramp":
		return demand.Ramp(demand.RampSpec{
			Steps: *steps, Step: units.Seconds(*step), A: *aParam,
			FromN: *baseN, ToN: *peakN, Jitter: *jitter, Seed: *seed,
		}), nil
	default:
		return demand.Trace{}, fmt.Errorf("unknown generator %q (diurnal, bursty, ramp)", *gen)
	}
}

// output is the JSON shape -json emits: the solved schedule, the
// reactive baseline's totals, and the optional risk timeline.
type output struct {
	App       string               `json:"app"`
	TraceName string               `json:"trace_name,omitempty"`
	TraceHash string               `json:"trace_hash"`
	Billing   string               `json:"billing"`
	Solved    schedule.Schedule    `json:"solved"`
	Baseline  baselineSummary      `json:"baseline"`
	Savings   float64              `json:"savings_vs_reactive_pct"`
	Risk      []schedule.RiskPoint `json:"risk,omitempty"`
}

type baselineSummary struct {
	TotalCost units.USD `json:"total_cost_usd"`
	Switches  int       `json:"switches"`
	Misses    int       `json:"misses"`
}

func writeJSON(tr demand.Trace, solved, baseline schedule.Schedule, riskPts []schedule.RiskPoint) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(output{
		App:       *appName,
		TraceName: tr.Name,
		TraceHash: tr.Hash(),
		Billing:   *billing,
		Solved:    solved,
		Baseline: baselineSummary{
			TotalCost: baseline.TotalCost,
			Switches:  baseline.Switches,
			Misses:    baseline.Misses,
		},
		Savings: schedule.SavingsPct(solved.TotalCost, baseline.TotalCost),
		Risk:    riskPts,
	}); err != nil {
		log.Fatal(err)
	}
}

func writeTable(tr demand.Trace, solved, baseline schedule.Schedule, riskPts []schedule.RiskPoint) {
	name := tr.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("app %s  trace %s  hash %s  %d steps x %.0fs (%.1f h)  billing %s\n",
		*appName, name, tr.Hash(), tr.Steps(), float64(tr.Step),
		float64(tr.Horizon().InHours()), *billing)
	fmt.Printf("candidates %d  boot %.0fs  quantum %.0fs\n\n",
		solved.Candidates, float64(solved.Policy.Boot), float64(solved.Policy.Quantum))

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "\tcost $\tswitches\tmisses\n")
	fmt.Fprintf(w, "solved\t%.6f\t%d\t%d\n", float64(solved.TotalCost), solved.Switches, solved.Misses)
	fmt.Fprintf(w, "reactive\t%.6f\t%d\t%d\n", float64(baseline.TotalCost), baseline.Switches, baseline.Misses)
	w.Flush()
	fmt.Printf("\nsavings vs reactive %.2f%%  release payout $%.6f\n",
		schedule.SavingsPct(solved.TotalCost, baseline.TotalCost), float64(solved.ReleasePayout))

	if *timeline > 0 {
		rows := len(solved.Steps)
		if rows > *timeline {
			rows = *timeline
		}
		fmt.Printf("\nfirst %d of %d steps:\n", rows, len(solved.Steps))
		tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "t\tconfig\tdelta\tbusy s\tslack s\tcost $\tmissed\n")
		for t := 0; t < rows; t++ {
			st := solved.Steps[t]
			fmt.Fprintf(tw, "%d\t%s\t%+d\t%.1f\t%.1f\t%.6f\t%v\n",
				t, st.Config, st.DeltaNodes, float64(st.Busy), float64(st.Slack),
				float64(st.Cost), st.Missed)
		}
		tw.Flush()
	}
	if len(riskPts) > 0 {
		fmt.Printf("\nrisk timeline (λ=%.4g/instance-hour):\n", *hazard)
		tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "t\tmiss prob\ttrials\n")
		for _, pt := range riskPts {
			fmt.Fprintf(tw, "%d\t%.3f\t%d\n", pt.T, pt.MissProbability, pt.Trials)
		}
		tw.Flush()
	}
}
