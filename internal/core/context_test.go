package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// scanOnlyEngine builds a small scan-only engine, so every query routes
// through the exhaustive scan — the path cooperative cancellation must
// cover.
func scanOnlyEngine(t *testing.T) *Engine {
	t.Helper()
	var types []ec2.InstanceType
	for c := 0; c < 4; c++ {
		types = append(types, ec2.InstanceType{
			Name:     fmt.Sprintf("x%d.a", c),
			Category: ec2.Category(fmt.Sprintf("cat%d", c)),
			VCPUs:    2,
			BaseGHz:  2.5,
			Price:    units.USDPerHour(0.1 * float64(c+1)),
		})
	}
	cat, err := ec2.NewCatalog(types)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]units.Rate, cat.Len())
	for i := range rates {
		rates[i] = units.GIPS(1 + float64(i))
	}
	caps, err := model.New(cat, rates)
	if err != nil {
		t.Fatal(err)
	}
	space, err := config.Uniform(cat.Len(), 3)
	if err != nil {
		t.Fatal(err)
	}
	dm := demand.FromFunc("lin", func(n, a float64) float64 { return n * a })
	dom := workload.Domain{MinN: 1, MaxN: 1e18, MinA: 1, MaxA: 1e18}
	eng, err := NewEngine(caps, dm, space, dom)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetUseIndex(false)
	return eng
}

// TestScanQueriesAbortOnCanceledContext: every scan-path query variant
// must surface the standard context sentinel (wrapped, errors.Is-able)
// instead of a partial or stale answer once its context is done.
func TestScanQueriesAbortOnCanceledContext(t *testing.T) {
	eng := scanOnlyEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := workload.Params{N: 1e6, A: 10}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 1000}

	if _, err := eng.AnalyzeContext(ctx, p, cons, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext err = %v, want context.Canceled", err)
	}
	if _, _, err := eng.MinCostForDeadlineContext(ctx, p, cons.Deadline); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinCostForDeadlineContext err = %v, want context.Canceled", err)
	}
	if _, _, err := eng.MinTimeForBudgetContext(ctx, p, cons.Budget); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinTimeForBudgetContext err = %v, want context.Canceled", err)
	}
	if _, _, _, err := eng.MaxAccuracyContext(ctx, 1e6, cons, 1e-3); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxAccuracyContext err = %v, want context.Canceled", err)
	}

	// An expired deadline surfaces its own sentinel the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), -1)
	defer dcancel()
	if _, err := eng.AnalyzeContext(dctx, p, cons, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeContext err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextVariantsMatchPlain: with a live context the Context
// variants are the plain queries — same floats, same tie winners.
func TestContextVariantsMatchPlain(t *testing.T) {
	eng := scanOnlyEngine(t)
	ctx := context.Background()
	p := workload.Params{N: 1e6, A: 10}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 1000}

	anPlain, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	anCtx, err := eng.AnalyzeContext(ctx, p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(anCtx, anPlain) {
		t.Fatal("AnalyzeContext diverged from Analyze")
	}

	predPlain, okPlain, err := eng.MinCostForDeadline(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	predCtx, okCtx, err := eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if okPlain != okCtx || !reflect.DeepEqual(predCtx, predPlain) {
		t.Fatal("MinCostForDeadlineContext diverged from MinCostForDeadline")
	}
}
