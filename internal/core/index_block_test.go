package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/units"
)

// linearFeasible is the per-span census the block summaries replace:
// every time-feasible span, one exact billCost search each. It is the
// reference the block kernel is checked against.
func linearFeasible(x *FrontierIndex, e *Engine, d units.Instructions, deadline units.Seconds, budget units.USD) uint64 {
	lo := sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
	var feasible uint64
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		b := sort.Search(sp.end-sp.start, func(i int) bool {
			return e.billCost(T, x.pairs[sp.start+i].cu) >= budget
		})
		feasible += x.prefix[sp.start+b] - x.prefix[sp.start]
	}
	return feasible
}

// linearMinCostTie is the per-span min-cost tie pass the block
// summaries replace: the lessTuple-minimal member of every
// time-feasible span's exact-cost prefix at bestC.
func linearMinCostTie(x *FrontierIndex, e *Engine, d units.Instructions, deadline units.Seconds, bestC units.USD) config.Tuple {
	lo := sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
	var bestTuple config.Tuple
	have := false
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		ub := sort.Search(sp.end-sp.start, func(i int) bool {
			return e.billCost(T, x.pairs[sp.start+i].cu) > bestC
		})
		if ub == 0 {
			continue
		}
		for _, pr := range x.pairs[sp.start : sp.start+ub] {
			if !have || lessTupleFast(pr.lessMin, bestTuple) {
				bestTuple, have = pr.lessMin, true
			}
		}
	}
	return bestTuple
}

// blockKernelIndex builds a synthetic index of well over 40k pairs in
// many blocks: mostly narrow spans, some spanning a very wide c_u
// range, unit costs partly drawn from a coarse grid so different spans
// share exact c_u values, and some spans doubling an earlier one's
// capacity and unit costs, which prices them bit-equal to it under
// per-second billing (both factors scale by an exact power of two).
func blockKernelIndex(rng *rand.Rand) *FrontierIndex {
	type span struct {
		u   units.Rate
		cus []units.USDPerHour
	}
	var spans []span
	seen := map[units.Rate]bool{}
	add := func(u units.Rate, cus []units.USDPerHour) {
		if seen[u] {
			return
		}
		seen[u] = true
		sort.Slice(cus, func(i, j int) bool { return cus[i] < cus[j] })
		out := cus[:0]
		for i, c := range cus {
			if i == 0 || c > out[len(out)-1] {
				out = append(out, c)
			}
		}
		spans = append(spans, span{u, out})
	}
	cost := func(lo, hi float64) units.USDPerHour {
		c := lo + (hi-lo)*rng.Float64()
		if rng.Intn(2) == 0 {
			c = math.Max(1.0/64, math.Round(c*64)/64)
		}
		return units.USDPerHour(c)
	}
	pairs := 0
	for pairs < 48000 {
		u := units.Rate(1 + 1000*rng.Float64())
		var cus []units.USDPerHour
		switch r := rng.Intn(100); {
		case r < 1: // very wide: cheap to dear
			for k := 100 + rng.Intn(300); k > 0; k-- {
				cus = append(cus, cost(0.01, 60))
			}
		case r < 15:
			center := 30 * rng.Float64()
			for k := 5 + rng.Intn(25); k > 0; k-- {
				cus = append(cus, cost(center, center+3))
			}
		default:
			center := 30 * rng.Float64()
			for k := 1 + rng.Intn(4); k > 0; k-- {
				cus = append(cus, cost(center, center+0.5))
			}
		}
		add(u, cus)
		if rng.Intn(10) == 0 {
			double := make([]units.USDPerHour, len(cus))
			for i, c := range cus {
				double[i] = 2 * c
			}
			add(2*u, double)
		}
		pairs += len(cus)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].u < spans[j].u })
	var table []idxPair
	var total uint64
	for _, sp := range spans {
		for _, cu := range sp.cus {
			counts := make([]int, 9)
			for k := range counts {
				counts[k] = rng.Intn(6)
			}
			pr := idxPair{
				u:       sp.u,
				cu:      cu,
				count:   uint64(1 + rng.Intn(7)),
				minIdx:  uint64(len(table)),
				lessMin: config.MustTuple(counts...),
			}
			total += pr.count
			table = append(table, pr)
		}
	}
	return finishIndex(table, total)
}

// TestBlockKernelMatchesLinear certifies the block-summary census count
// and min-cost tie pass against the per-span loops they replace, under
// both billing policies, on constraints aimed at the kernel's edges:
// budgets equal to the exact cost of a pair (including the dearest pair
// of a block's first span at the block's slowest time, where the
// all-feasible test flips), deadlines equal to exact span times that
// cut the time-feasible suffix at block boundaries ±1, unconstrained
// queries, and queries nothing meets. The randomized engine harness
// uses catalogs too small to fill a second block, so only this test
// reaches the summaries' cross-block paths.
func TestBlockKernelMatchesLinear(t *testing.T) {
	rng := rand.New(detSource{detrand.New(0xb10c)})
	x := blockKernelIndex(rng)
	if len(x.pairs) < 40000 || len(x.spans) < 20*blockSpans {
		t.Fatalf("synthetic index too small: %d pairs, %d spans", len(x.pairs), len(x.spans))
	}
	n := len(x.spans)
	midU := float64(x.spans[n/2].u)

	for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
		e := &Engine{billing: billing}
		checked := 0
		check := func(label string, d units.Instructions, cons Constraints) {
			t.Helper()
			deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
			got := x.feasibleCount(e, d, deadline, budget)
			want := linearFeasible(x, e, d, deadline, budget)
			if got != want {
				t.Fatalf("%s %s: block census %d, per-span %d", billing, label, got, want)
			}
			checked++
			// The tie pass runs at the minimal time-feasible cost; when
			// nothing meets both constraints minSearch never reaches it.
			bestC := units.USD(math.Inf(1))
			lo := x.firstFeasibleSpan(d, deadline)
			for si := lo; si < n; si++ {
				T := units.Time(d, x.spans[si].u)
				if c := e.billCost(T, x.pairs[x.spans[si].start].cu); c < budget && c < bestC {
					bestC = c
				}
			}
			if math.IsInf(float64(bestC), 1) {
				return
			}
			if g, w := x.minCostTie(e, d, deadline, bestC), linearMinCostTie(x, e, d, deadline, bestC); g != w {
				t.Fatalf("%s %s: block tie winner %v, per-span %v", billing, label, g, w)
			}
		}

		for q := 0; q < 40; q++ {
			// Times of a few hours around the median capacity.
			d := units.Instructions(midU * 3600 * (0.5 + 6*rng.Float64()))
			si := rng.Intn(n)
			pi := x.spans[si].start + rng.Intn(x.spans[si].end-x.spans[si].start)
			exactC := e.billCost(units.Time(d, x.spans[si].u), x.pairs[pi].cu)
			bf := (1 + rng.Intn(n/blockSpans-1)) * blockSpans
			blockC := e.billCost(units.Time(d, x.spans[bf].u), x.pairs[x.spans[bf].end-1].cu)
			for _, off := range []int{-1, 0, 1} {
				// Deadline T(s) makes s+1 the first time-feasible span.
				cut := (1+rng.Intn(n/blockSpans-1))*blockSpans + off
				dl := units.Time(d, x.spans[cut-1].u)
				check(fmt.Sprintf("q%d cut %d exact-pair budget", q, cut), d, Constraints{Deadline: dl, Budget: exactC})
				check(fmt.Sprintf("q%d cut %d block-edge budget", q, cut), d, Constraints{Deadline: dl, Budget: blockC})
				check(fmt.Sprintf("q%d cut %d deadline only", q, cut), d, Constraints{Deadline: dl})
			}
			check(fmt.Sprintf("q%d block-edge budget", q), d, Constraints{Budget: blockC})
			check(fmt.Sprintf("q%d exact-pair budget", q), d, Constraints{Budget: exactC})
			check(fmt.Sprintf("q%d unconstrained", q), d, Constraints{})
			check(fmt.Sprintf("q%d unmeetable deadline", q), d, Constraints{Deadline: 1e-9})
			check(fmt.Sprintf("q%d unmeetable budget", q), d, Constraints{Budget: 1e-12})
		}
		t.Logf("%s: %d queries checked", billing, checked)
	}
}
