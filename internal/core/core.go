// Package core is the CELIA engine — the paper's primary contribution.
// Given an elastic application's demand model, per-type cloud resource
// capacities, a time deadline T′ and a cost budget C′, it searches the
// configuration space for feasible configurations (Algorithm 1),
// extracts the cost-time Pareto-optimal subset, and answers the
// optimization queries the evaluation is built on (minimum cost for a
// deadline, minimum time within a budget, maximum accuracy within
// both).
//
// Every query has one exact answer, defined by the exhaustive scan: a
// parallel streaming walk of all S configurations (Eq. 1), exactly
// Algorithm 1, with value ties broken by configuration order (census)
// or by the lexicographically least tuple (argmin queries). An engine
// answers from the demand-invariant frontier index (index.go) whenever
// its billing policy is certified index-monotone, which reproduces
// the scan bit for bit, and falls back to the scan otherwise or when
// SetUseIndex(false) makes it scan-only.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/units"
	"repro/internal/workload"
)

// Engine binds a demand model, capacities, and a configuration space.
type Engine struct {
	caps    *model.Capacities
	dm      demand.Model
	space   *config.Space
	domain  workload.Domain
	billing model.Billing

	// Frontier-index state (see index.go): used unless
	// SetUseIndex(false) made the engine scan-only, built lazily under
	// idxMu, published through an atomic pointer so queries never block
	// on a rebuild and InstallIndex/RebuildIndex can swap a new index in
	// under live traffic (zero-downtime catalog updates, snapshot
	// restores). nil pointer = no usable index (not yet built, or the
	// build overflowed). idxReady flips after a build/install completes
	// so observers (response headers, telemetry) can check state
	// without triggering the multi-second build themselves; idxTried
	// flips after the first attempt either way.
	scanOnly bool
	idxMu    sync.Mutex
	idx      atomic.Pointer[FrontierIndex]
	idxReady atomic.Bool
	idxTried atomic.Bool
}

// NewEngine validates and builds an engine. The space's arity must
// match the catalog.
func NewEngine(caps *model.Capacities, dm demand.Model, space *config.Space, dom workload.Domain) (*Engine, error) {
	if caps == nil || space == nil {
		return nil, fmt.Errorf("core: nil capacities or space")
	}
	if space.Types() != caps.Catalog().Len() {
		return nil, fmt.Errorf("core: space has %d types, catalog %d", space.Types(), caps.Catalog().Len())
	}
	return &Engine{caps: caps, dm: dm, space: space, domain: dom}, nil
}

// SetBilling selects the billing policy used by every query (default:
// per-second, Eq. 5 verbatim). Per-hour billing reproduces 2017-era
// EC2 charging, where each instance pays for every started hour.
func (e *Engine) SetBilling(b model.Billing) { e.billing = b }

// Billing reports the engine's billing policy.
func (e *Engine) Billing() model.Billing { return e.billing }

// billCost prices a duration at a unit cost under the engine's policy
// — the hot-loop form of model.Bill.
func (e *Engine) billCost(T units.Seconds, cu units.USDPerHour) units.USD {
	if e.billing == model.PerHour {
		h := units.Hours(math.Ceil(T.Hours()))
		if h < 1 && T > 0 {
			h = 1
		}
		return cu.ForHours(h)
	}
	return cu.PerSecond().Over(T)
}

// Capacities returns the engine's capacity model.
func (e *Engine) Capacities() *model.Capacities { return e.caps }

// DemandModel returns the engine's demand model.
func (e *Engine) DemandModel() demand.Model { return e.dm }

// Space returns the engine's configuration space.
func (e *Engine) Space() *config.Space { return e.space }

// Demand evaluates the demand model at p after domain validation.
func (e *Engine) Demand(p workload.Params) (units.Instructions, error) {
	if err := e.domain.CheckParams(p); err != nil {
		return 0, err
	}
	d := e.dm.Demand(p)
	if d <= 0 {
		return 0, fmt.Errorf("core: demand model predicts %v for %v", d, p)
	}
	return d, nil
}

// Constraints are the execution targets: time deadline T′ and cost
// budget C′. Non-positive values mean unconstrained.
type Constraints struct {
	Deadline units.Seconds
	Budget   units.USD
}

func (c Constraints) deadlineOrInf() units.Seconds {
	if c.Deadline <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return c.Deadline
}

func (c Constraints) budgetOrInf() units.USD {
	if c.Budget <= 0 {
		return units.USD(math.Inf(1))
	}
	return c.Budget
}

// FrontierPoint is one Pareto-optimal configuration.
type FrontierPoint struct {
	Config config.Tuple
	Time   units.Seconds
	Cost   units.USD
}

// Analysis is the result of a full configuration-space census
// (Algorithm 1 plus the Pareto filter) — the data behind Figure 4.
type Analysis struct {
	Params      workload.Params
	Demand      units.Instructions
	Constraints Constraints
	Total       uint64 // S: configurations examined
	Feasible    uint64 // configurations with T < T′ and C < C′
	Frontier    []FrontierPoint
	// Sample holds every k-th feasible (time, cost) pair for plotting
	// the Figure 4 scatter; empty unless Options.SampleEvery > 0.
	Sample []FrontierPoint
}

// CostSpan reports the cheapest and most expensive frontier costs and
// their ratio (the paper reports spans of ~1.2–1.3×). An empty frontier
// reports (0, 0, 0). A frontier whose cheapest point costs $0 has no
// meaningful ratio: an all-free frontier reports the flat span 1, and a
// $0 cheapest point under a priced maximum reports the 0 sentinel
// rather than ±Inf or NaN so callers can gate on it.
func (a Analysis) CostSpan() (lo, hi units.USD, ratio float64) {
	if len(a.Frontier) == 0 {
		return 0, 0, 0
	}
	lo, hi = a.Frontier[0].Cost, a.Frontier[0].Cost
	for _, f := range a.Frontier[1:] {
		if f.Cost < lo {
			lo = f.Cost
		}
		if f.Cost > hi {
			hi = f.Cost
		}
	}
	switch {
	case lo > 0:
		ratio = float64(hi / lo)
	case hi == 0:
		ratio = 1
	default:
		ratio = 0
	}
	return lo, hi, ratio
}

// Options tune Analyze.
type Options struct {
	Workers     int     // parallel scan width; ≤0 means GOMAXPROCS
	EpsTime     float64 // ε-box size for time (seconds); 0 = exact frontier
	EpsCost     float64 // ε-box size for cost ($); 0 = exact frontier
	SampleEvery uint64  // keep every k-th feasible point; 0 = none
	SampleCap   int     // max sample size (default 4096)
}

// ctxPollMask throttles cancellation checks in the scan hot loops: each
// worker consults ctx.Err() once per 8192 configurations, cheap enough
// to be invisible in the scan benchmarks yet prompt enough that a
// canceled multi-second walk returns within microseconds of real work.
const ctxPollMask = 8192 - 1

// errAborted wraps a context error so scan-path callers surface the
// standard context sentinels (errors.Is works) under a package prefix.
func errAborted(err error) error { return fmt.Errorf("core: query aborted: %w", err) }

// Analyze runs Algorithm 1 over the entire space and Pareto-filters the
// feasible set. Sampling-free censuses are answered from the frontier
// index's precomputed pair table instead of re-walking the space —
// under per-second and per-hour billing alike (model.Billing.Indexable);
// the two paths produce byte-identical Analysis values (certified in
// index_test.go and the per-billing property harness).
func (e *Engine) Analyze(p workload.Params, cons Constraints, opts Options) (Analysis, error) {
	return e.AnalyzeContext(context.Background(), p, cons, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: the
// exhaustive scan path polls ctx between batches of configurations and
// abandons the walk once the context is done, returning the wrapped
// context error instead of a partial census. The index path answers in
// microseconds and never needs to poll.
func (e *Engine) AnalyzeContext(ctx context.Context, p workload.Params, cons Constraints, opts Options) (Analysis, error) {
	d, err := e.Demand(p)
	if err != nil {
		return Analysis{}, err
	}
	an := Analysis{
		Params:      p,
		Demand:      d,
		Constraints: cons,
		Total:       e.space.Size(),
	}
	var front []pareto.Point
	if idx := e.indexFor(); idx != nil && opts.SampleEvery == 0 {
		// Sampling still needs the per-configuration walk: the index
		// aggregates away the individual feasible points.
		an.Feasible, front = idx.census(e, d, cons)
	} else {
		front = e.scanCensus(ctx, &an, d, cons, opts)
		if err := ctx.Err(); err != nil {
			return Analysis{}, errAborted(err)
		}
	}
	// A one-sided ε is honored per axis; the zero axis stays exact.
	if opts.EpsTime > 0 || opts.EpsCost > 0 {
		front = pareto.EpsilonFrontier2D(front, opts.EpsTime, opts.EpsCost)
	}
	an.Frontier = make([]FrontierPoint, len(front))
	for i, pt := range front {
		tuple, err := e.space.AtIndex(pt.ID)
		if err != nil {
			return Analysis{}, fmt.Errorf("core: frontier index %d: %w", pt.ID, err)
		}
		an.Frontier[i] = FrontierPoint{Config: tuple, Time: units.Seconds(pt.X), Cost: units.USD(pt.Y)}
	}
	// Deterministic (time, cost, tuple) order: a bare time key left
	// equal-time points in worker-merge order, so the output varied
	// with Options.Workers. Sample membership still depends on the
	// worker sharding — each shard keeps its own every-k-th feasible
	// point — only the order of whatever was kept is pinned here.
	sort.SliceStable(an.Sample, func(i, j int) bool {
		a, b := an.Sample[i], an.Sample[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return lessTupleFast(a.Config, b.Config)
	})
	return an, nil
}

// scanCensus is Analyze's exhaustive path: a parallel streaming scan of
// the whole space that never stores the feasible set. It fills the
// feasible count and sample in an and returns the merged frontier.
func (e *Engine) scanCensus(ctx context.Context, an *Analysis, d units.Instructions, cons Constraints, opts Options) []pareto.Point {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sampleCap := opts.SampleCap
	if sampleCap <= 0 {
		sampleCap = 4096
	}
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	w, nodeCost := e.caps.NodeArrays()

	type shard struct {
		stream   pareto.Stream2D
		feasible uint64
		seen     uint64
		sample   []FrontierPoint
		_        [64]byte // keep workers' hot counters off a shared cache line
	}
	shards := make([]shard, workers)
	var stop atomic.Bool

	e.space.ForEachParallelIndexed(workers, func(worker int, idx uint64, t config.Tuple) {
		if stop.Load() {
			return
		}
		if sh := &shards[worker]; sh.seen&ctxPollMask == ctxPollMask {
			sh.seen++
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
		} else {
			sh.seen++
		}
		var u units.Rate
		var cu units.USDPerHour
		for i := 0; i < t.Len(); i++ {
			if m := t.Count(i); m > 0 {
				u += units.Rate(m) * w[i]
				cu += units.USDPerHour(m) * nodeCost[i]
			}
		}
		T := units.Time(d, u)
		C := e.billCost(T, cu)
		if T >= deadline || C >= budget {
			return
		}
		sh := &shards[worker]
		sh.feasible++
		// The exact streaming frontier is also a sufficient candidate
		// set for ε-filtering afterwards: an ε-box dominates another
		// exactly when some exact-frontier point in it does.
		//lint:allow unitsafe pareto.Point is the unit-agnostic frontier kernel; axes are re-typed on rebuild above
		sh.stream.Add(pareto.Point{X: float64(T), Y: float64(C), ID: idx})
		if opts.SampleEvery > 0 && sh.feasible%opts.SampleEvery == 0 && len(sh.sample) < sampleCap {
			sh.sample = append(sh.sample, FrontierPoint{Config: t, Time: T, Cost: C})
		}
	})

	var merged pareto.Stream2D
	for i := range shards {
		an.Feasible += shards[i].feasible
		merged.Merge(&shards[i].stream)
		an.Sample = append(an.Sample, shards[i].sample...)
	}
	return merged.Frontier()
}

// searchBest routes a single-objective query to the frontier index
// when it is active (not scan-only, billing certified index-monotone,
// catalog under the pair cap) and to the exhaustive scan otherwise;
// both return the scan's answer.
func (e *Engine) searchBest(d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool) {
	pred, ok, _ := e.searchBestCtx(context.Background(), d, cons, obj)
	return pred, ok
}

// searchBestCtx is searchBest with cooperative cancellation on the
// scan fallback; the index path is fast enough to run to completion
// regardless.
func (e *Engine) searchBestCtx(ctx context.Context, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool, error) {
	if idx := e.indexFor(); idx != nil {
		pred, ok := idx.minSearch(e, d, cons, obj)
		return pred, ok, nil
	}
	return e.scanSearchCtx(ctx, d, cons, obj)
}

// MinCostForDeadline finds the cheapest configuration whose predicted
// time satisfies the deadline, from the frontier index when active and
// the exhaustive scan otherwise. The second return is false when no
// configuration can meet the deadline.
func (e *Engine) MinCostForDeadline(p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	return e.MinCostForDeadlineContext(context.Background(), p, deadline)
}

// MinCostForDeadlineContext is MinCostForDeadline with cooperative
// cancellation on the scan fallback.
func (e *Engine) MinCostForDeadlineContext(ctx context.Context, p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.searchBestCtx(ctx, d, Constraints{Deadline: deadline}, objectiveCost)
}

// MinTimeForBudget finds the fastest configuration whose predicted cost
// stays within the budget.
func (e *Engine) MinTimeForBudget(p workload.Params, budget units.USD) (model.Prediction, bool, error) {
	return e.MinTimeForBudgetContext(context.Background(), p, budget)
}

// MinTimeForBudgetContext is MinTimeForBudget with cooperative
// cancellation on the scan fallback.
func (e *Engine) MinTimeForBudgetContext(ctx context.Context, p workload.Params, budget units.USD) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.searchBestCtx(ctx, d, Constraints{Budget: budget}, objectiveTime)
}

// MinCostExhaustive is the exhaustive counterpart of
// MinCostForDeadline: Algorithm 1 with a running minimum over every
// configuration, ties broken by the lexicographically least tuple. It
// is the oracle the frontier index is certified against, and the path
// every query takes on a scan-only engine.
func (e *Engine) MinCostExhaustive(p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.scanSearchCtx(context.Background(), d, Constraints{Deadline: deadline}, objectiveCost)
}

// lessTuple is a deterministic tie-break on equal objective values.
func lessTuple(a, b config.Tuple) bool { return a.String() < b.String() }

type objective int

const (
	objectiveCost objective = iota
	objectiveTime
)

// scanSearch is the exhaustive single-objective search over the whole
// space: the oracle for every argmin query and the fallback when the
// index is not active.
func (e *Engine) scanSearch(d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool) {
	pred, ok, _ := e.scanSearchCtx(context.Background(), d, cons, obj)
	return pred, ok
}

func (e *Engine) scanSearchCtx(ctx context.Context, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool, error) {
	w, nodeCost := e.caps.NodeArrays()
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	workers := runtime.GOMAXPROCS(0)
	type best struct {
		val  float64
		t    config.Tuple
		ok   bool
		seen uint64
		// Every configuration bumps seen, so workers' entries must not
		// share a cache line: without the pad the two-core scan runs
		// ~2.4× slower from line ping-pong alone.
		_ [64]byte
	}
	bests := make([]best, workers)
	for i := range bests {
		bests[i].val = math.Inf(1)
	}
	var stop atomic.Bool
	e.space.ForEachParallel(workers, func(worker int, t config.Tuple) {
		if stop.Load() {
			return
		}
		if b := &bests[worker]; b.seen&ctxPollMask == ctxPollMask {
			b.seen++
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
		} else {
			b.seen++
		}
		var u units.Rate
		var cu units.USDPerHour
		for i := 0; i < t.Len(); i++ {
			if m := t.Count(i); m > 0 {
				u += units.Rate(m) * w[i]
				cu += units.USDPerHour(m) * nodeCost[i]
			}
		}
		T := units.Time(d, u)
		C := e.billCost(T, cu)
		if T >= deadline || C >= budget {
			return
		}
		//lint:allow unitsafe objective value is cost ($) or time (s) by query kind; only compared against itself
		v := float64(C)
		if obj == objectiveTime {
			//lint:allow unitsafe objective value is cost ($) or time (s) by query kind; only compared against itself
			v = float64(T)
		}
		b := &bests[worker]
		//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
		if v < b.val || (v == b.val && b.ok && lessTuple(t, b.t)) {
			b.val, b.t, b.ok = v, t, true
		}
	})
	if err := ctx.Err(); err != nil {
		return model.Prediction{}, false, errAborted(err)
	}
	out := best{val: math.Inf(1)}
	for _, b := range bests {
		//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
		if b.ok && (b.val < out.val || (b.val == out.val && out.ok && lessTuple(b.t, out.t))) {
			out = b
		}
	}
	if !out.ok {
		return model.Prediction{}, false, nil
	}
	return e.caps.PredictBilled(d, out.t, e.billing), true, nil
}

// MaxAccuracy finds the largest accuracy value a (within the app's
// domain) such that problem (n, a) still admits a configuration meeting
// both constraints — the inverse query that motivates elastic
// applications: spend the whole budget on result quality. Monotone
// demand in a is assumed (true for all three paper applications);
// binary search to within tol (relative).
func (e *Engine) MaxAccuracy(n float64, cons Constraints, tol float64) (workload.Params, model.Prediction, bool, error) {
	return e.MaxAccuracyContext(context.Background(), n, cons, tol)
}

// MaxAccuracyContext is MaxAccuracy with cooperative cancellation. The
// bisection runs up to ~20 sequential feasibility probes. On the index
// path each probe is an early-exit staircase walk and the argmin runs
// once, at the returned accuracy; on a scan-fallback engine each probe
// is a full scan that keeps its prediction — the single most expensive
// query the serving path can receive — so each probe checks ctx and
// the whole bisection aborts as soon as the context is done.
func (e *Engine) MaxAccuracyContext(ctx context.Context, n float64, cons Constraints, tol float64) (workload.Params, model.Prediction, bool, error) {
	if tol <= 0 {
		tol = 1e-3
	}
	lo, hi := e.domain.MinA, e.domain.MaxA
	idx := e.indexFor()
	check := func(a float64) (model.Prediction, bool, error) {
		d, err := e.Demand(workload.Params{N: n, A: a})
		if err != nil {
			return model.Prediction{}, false, nil
		}
		if idx != nil {
			return model.Prediction{}, idx.firstFeasibleStep(e, d, cons.deadlineOrInf(), cons.budgetOrInf()) >= 0, nil
		}
		return e.scanSearchCtx(ctx, d, cons, objectiveCost)
	}
	// answer returns the accuracy a that the bisection settled on with
	// its min-cost prediction, computed once on the index path.
	answer := func(a float64, pred model.Prediction) (workload.Params, model.Prediction, bool, error) {
		p := workload.Params{N: n, A: a}
		if idx != nil {
			d, err := e.Demand(p)
			if err != nil {
				return workload.Params{}, model.Prediction{}, false, err
			}
			pred, _ = idx.minSearch(e, d, cons, objectiveCost)
		}
		return p, pred, true, nil
	}
	pred, ok, err := check(lo)
	if err != nil {
		return workload.Params{}, model.Prediction{}, false, err
	}
	if !ok {
		return workload.Params{}, model.Prediction{}, false, nil
	}
	if p, ok, err := check(hi); err != nil {
		return workload.Params{}, model.Prediction{}, false, err
	} else if ok {
		return answer(hi, p)
	}
	bestA := lo
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		p, ok, err := check(mid)
		if err != nil {
			return workload.Params{}, model.Prediction{}, false, err
		}
		if ok {
			bestA, pred, lo = mid, p, mid
		} else {
			hi = mid
		}
	}
	return answer(bestA, pred)
}

// NewPaperEngine assembles the paper's standard setup for an
// application: Oregon catalog, five nodes per type, ground-truth
// capacities, and the app's analytic demand law. Production use feeds
// fitted demand models and profiled capacities instead; this
// constructor serves analysis and examples.
func NewPaperEngine(app workload.App) *Engine {
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 5)
	if err != nil {
		panic("core: paper space: " + err.Error())
	}
	eng, err := NewEngine(model.FromIPC(cat, app), demand.FromApp(app), space, app.Domain())
	if err != nil {
		panic("core: paper engine: " + err.Error())
	}
	return eng
}
