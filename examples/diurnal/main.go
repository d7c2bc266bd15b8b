// Diurnal scheduling: solve a day of rising-and-falling demand into
// the cheapest scaling schedule, and compare it with what a reactive
// autoscaler would have paid on the same trace.
//
// This is the trace-driven face of the paper's model: instead of one
// job sized against one deadline, each 5-minute step carries its own
// problem size, and the solver picks a configuration per step from the
// frontier-index staircase while accounting for boot time and (under
// per-hour billing) the cost of releasing nodes mid-hour.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/galaxy"
	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/schedule"
)

func main() {
	log.SetFlags(0)

	// One simulated day for the n-body service: 288 five-minute steps,
	// troughs overnight, a noon peak ten times the base load. The
	// generator is seeded, so this trace is bit-identical on every run.
	trace := demand.Diurnal(demand.DiurnalSpec{
		Steps:  288,
		Step:   300, // seconds
		A:      50,  // simulation steps per problem, shared by the day
		BaseN:  6_000,
		PeakN:  60_000,
		Period: 288, // one full cycle over the day
		Jitter: 0.04,
		Seed:   42,
	})
	fmt.Printf("trace %q: %d steps x %.0f s (%.1f h), hash %s\n\n",
		trace.Name, trace.Steps(), float64(trace.Step),
		float64(trace.Horizon().InHours()), trace.Hash())

	engine := core.NewPaperEngine(galaxy.App{})

	for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
		engine.SetBilling(billing)

		// PolicyFor picks the billing quantum (one hour under per-hour
		// billing, zero otherwise); boot time defaults separately.
		pol := schedule.PolicyFor(engine)
		pol.Boot = schedule.DefaultBoot

		solved, err := schedule.Solve(engine, trace, pol)
		if err != nil {
			log.Fatal(err)
		}
		baseline, err := schedule.Reactive(engine, trace, pol, autoscale.DefaultPolicy())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s billing (%d staircase candidates per step):\n",
			billing, solved.Candidates)
		fmt.Printf("  solved    $%8.4f  %3d switches  %d misses\n",
			float64(solved.TotalCost), solved.Switches, solved.Misses)
		fmt.Printf("  reactive  $%8.4f  %3d switches  %d misses\n",
			float64(baseline.TotalCost), baseline.Switches, baseline.Misses)
		fmt.Printf("  savings   %.2f%%  (release payout $%.4f)\n\n",
			schedule.SavingsPct(solved.TotalCost, baseline.TotalCost),
			float64(solved.ReleasePayout))

		// Peek at the busiest boundary: where the solver grows the
		// cluster hardest for the noon peak.
		best, at := 0, 0
		for t, st := range solved.Steps {
			if st.DeltaNodes > best {
				best, at = st.DeltaNodes, t
			}
		}
		st := solved.Steps[at]
		fmt.Printf("  biggest grow: step %d (%+d nodes) -> %v, %.0f s slack\n\n",
			at, st.DeltaNodes, st.Config, float64(st.Slack))
	}

	fmt.Println("Per-hour billing charges released nodes to the end of their")
	fmt.Println("started hour, so the optimal schedule switches far less often")
	fmt.Println("than under per-second billing — frictions shape elasticity.")
}
