package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/autoscale"
	"repro/internal/cli"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/faults/risk"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/snapshot"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildIndexed builds one engine per app, builds its frontier index
// with Engine.RebuildIndex, and saves it under snapDir with
// snapshot.Save. It returns the engines and the summed build time.
func buildIndexed(snapDir string) (map[string]*core.Engine, time.Duration, error) {
	engines := map[string]*core.Engine{}
	var build time.Duration
	for _, spec := range appSpecs {
		eng, err := newEngine(spec.Name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if _, err := eng.RebuildIndex(); err != nil {
			return nil, 0, fmt.Errorf("%s: build index: %w", spec.Name, err)
		}
		build += time.Since(t0)
		eng.SetUseIndex(true)
		if err := snapshot.Save(snapshot.PathFor(snapDir, spec.Name), eng); err != nil {
			return nil, 0, fmt.Errorf("%s: save snapshot: %w", spec.Name, err)
		}
		engines[spec.Name] = eng
	}
	return engines, build, nil
}

// restoreIndexed builds fresh engines and installs their indexes from
// the snapshots with snapshot.Load + Engine.InstallIndex, returning the
// engines and the summed restore time.
func restoreIndexed(snapDir string) (map[string]*core.Engine, time.Duration, error) {
	engines := map[string]*core.Engine{}
	var restore time.Duration
	for _, spec := range appSpecs {
		eng, err := newEngine(spec.Name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		x, err := snapshot.Load(snapshot.PathFor(snapDir, spec.Name), eng)
		if err == nil {
			err = eng.InstallIndex(x)
		}
		restore += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: restore snapshot: %w", spec.Name, err)
		}
		eng.SetUseIndex(true)
		engines[spec.Name] = eng
	}
	return engines, restore, nil
}

func newEngine(app string) (*core.Engine, error) {
	wl, err := cli.LookupApp(app)
	if err != nil {
		return nil, err
	}
	return cli.BuildEngine(wl, false)
}

// Options the server's handlers pass to the library; kept equal so the
// oracle and the in-process ladder do the server's work.
const (
	maxFrontierRows = 100
	maxTimelineRows = 1000
	accuracyTol     = 1e-3
)

func riskOptions(r *Request) risk.Options {
	return risk.Options{
		Trials:        r.Trials,
		Seed:          r.Seed,
		HazardPerHour: r.Hazard,
		Deadline:      units.Hours(r.DeadlineH).Seconds(),
		Sim:           cloudsim.DefaultOptions(),
		Recovery:      faults.DefaultRecovery(),
	}
}

// coreCall makes the request's library call on eng and returns its
// duration: the Engine.*Context call for the analytic kinds,
// schedule.SolveContext for schedule and risk.EstimateContext for risk
// (the MinCost that picks the risk configuration is not timed).
func coreCall(ctx context.Context, eng *core.Engine, r *Request) (time.Duration, error) {
	p := workload.Params{N: r.N, A: r.A}
	cons := core.Constraints{Deadline: units.Hours(r.DeadlineH).Seconds(), Budget: units.USD(r.BudgetUSD)}
	var err error
	t0 := time.Now()
	switch r.Kind {
	case "analyze":
		_, err = eng.AnalyzeContext(ctx, p, cons, core.Options{})
	case "mincost":
		_, _, err = eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
	case "mintime":
		_, _, err = eng.MinTimeForBudgetContext(ctx, p, cons.Budget)
	case "maxaccuracy":
		_, _, _, err = eng.MaxAccuracyContext(ctx, r.N, cons, accuracyTol)
	case "schedule":
		_, err = schedule.SolveContext(ctx, eng, r.Trace, schedule.PolicyFor(eng))
	case "risk":
		pred, ok, merr := eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
		if merr != nil || !ok {
			return 0, fmt.Errorf("risk: no configuration meets %gh: %v", r.DeadlineH, merr)
		}
		wl, _ := cli.LookupApp(r.App)
		t0 = time.Now()
		_, err = risk.EstimateContext(ctx, wl, p, pred.Config, eng.Capacities().Catalog(), riskOptions(r))
	}
	return time.Since(t0), err
}

// respond computes the response value the server's handler builds for
// r, using eng for every library call. With exhaustive set, Analyze
// and MinCost take the exhaustive-scan entry points instead.
func respond(ctx context.Context, eng *core.Engine, r *Request, exhaustive bool) (any, error) {
	p := workload.Params{N: r.N, A: r.A}
	cons := core.Constraints{Deadline: units.Hours(r.DeadlineH).Seconds(), Budget: units.USD(r.BudgetUSD)}
	switch r.Kind {
	case "analyze":
		an, err := eng.AnalyzeContext(ctx, p, cons, core.Options{})
		if err != nil {
			return nil, err
		}
		resp := api.AnalyzeResponse{App: r.App, Total: an.Total, Feasible: an.Feasible}
		resp.CostLowUSD, resp.CostHiUSD, _ = an.CostSpan()
		for i, f := range an.Frontier {
			if i >= maxFrontierRows {
				break
			}
			resp.Frontier = append(resp.Frontier, api.ConfigResult{
				Config: f.Config.Counts(), TimeHours: f.Time.InHours(), CostUSD: f.Cost})
		}
		return resp, nil
	case "mincost", "mintime":
		var pred model.Prediction
		var ok bool
		var err error
		switch {
		case r.Kind == "mintime":
			pred, ok, err = eng.MinTimeForBudgetContext(ctx, p, cons.Budget)
		case exhaustive:
			pred, ok, err = eng.MinCostExhaustive(p, cons.Deadline)
		default:
			pred, ok, err = eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
		}
		if err != nil {
			return nil, err
		}
		return optimize(r.App, pred, ok, 0), nil
	case "maxaccuracy":
		params, pr, ok, err := eng.MaxAccuracyContext(ctx, r.N, cons, accuracyTol)
		if err != nil {
			return nil, err
		}
		return optimize(r.App, pr, ok, params.A), nil
	case "schedule":
		pol := schedule.PolicyFor(eng)
		solved, err := schedule.SolveContext(ctx, eng, r.Trace, pol)
		if err != nil {
			return nil, err
		}
		base, err := schedule.ReactiveContext(ctx, eng, r.Trace, pol, autoscale.DefaultPolicy())
		if err != nil {
			return nil, err
		}
		tr := r.Trace
		resp := api.ScheduleResponse{
			App: r.App, TraceHash: tr.Hash(), TraceName: tr.Name, Steps: tr.Steps(),
			StepSeconds: tr.Step, HorizonHours: tr.Horizon().InHours(), Billing: eng.Billing().String(),
			BootSeconds: pol.Boot, QuantumSeconds: pol.Quantum, Candidates: solved.Candidates,
			IndexBacked: eng.FrontierBuilt(), TotalCostUSD: solved.TotalCost, ReleasePayoutUSD: solved.ReleasePayout,
			Switches: solved.Switches, Misses: solved.Misses,
			BaselineCostUSD: base.TotalCost, BaselineMisses: base.Misses,
			SavingsVsReactivePct: schedule.SavingsPct(solved.TotalCost, base.TotalCost),
		}
		for t, st := range solved.Steps {
			if t >= maxTimelineRows {
				break
			}
			resp.Timeline = append(resp.Timeline, api.ScheduleStepResult{T: t, Config: st.Config.Counts(),
				DeltaNodes: st.DeltaNodes, SlackSeconds: st.Slack, CostUSD: st.Cost, Missed: st.Missed})
		}
		return resp, nil
	case "risk":
		pred, ok, err := eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
		if err != nil || !ok {
			return nil, fmt.Errorf("risk: no configuration meets %gh: %v", r.DeadlineH, err)
		}
		wl, _ := cli.LookupApp(r.App)
		est, err := risk.EstimateContext(ctx, wl, p, pred.Config, eng.Capacities().Catalog(), riskOptions(r))
		if err != nil {
			return nil, err
		}
		return api.RiskResponse{
			App: r.App, Config: pred.Config.Counts(), Trials: est.Trials, FailedTrials: est.Failed,
			MissProbability: est.MissProb, MeanFailures: est.MeanFailures,
			BaseTimeHours: est.BaseMakespan.InHours(), BaseCostUSD: est.BaseCost,
			TimeP50Hours: est.MakespanP50.InHours(), TimeP90Hours: est.MakespanP90.InHours(),
			TimeP99Hours: est.MakespanP99.InHours(),
			CostP50USD:   est.CostP50, CostP90USD: est.CostP90, CostP99USD: est.CostP99,
		}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", r.Kind)
}
