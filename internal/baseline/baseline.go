// Package baseline implements alternative configuration-selection
// algorithms to compare CELIA's exact min-cost search (the frontier
// index, certified against the exhaustive scan) against, mirroring the
// related-work approaches the paper cites: integer programming
// formulations (Kokkinos [13], Sharma [24]) stand in as an exact
// branch-and-bound over node counts, and the folk heuristic —
// greedily buy the most cost-efficient capacity — as the baseline a
// practitioner would try first.
//
// All solvers answer the same query as core.MinCostForDeadline:
// minimize predicted cost C = D·C_u/U subject to U ≥ D/T′.
package baseline

import (
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/units"
)

// GreedyMinCost buys nodes of the best instructions-per-dollar type
// first, moving to the next-best type when the limit is reached, until
// the deadline's capacity requirement is met. It is fast and usually
// good, but provably suboptimal in general: the last node bought can
// overshoot where a cheaper mix exists.
func GreedyMinCost(caps *model.Capacities, space *config.Space, d units.Instructions,
	deadline units.Seconds) (model.Prediction, bool) {
	if deadline <= 0 {
		return model.Prediction{}, false
	}
	uReq := float64(d) / float64(deadline)
	w, cost := rawArrays(caps)
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea := w[order[a]] / cost[order[a]]
		eb := w[order[b]] / cost[order[b]]
		if ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})
	counts := make([]int, len(w))
	var u float64
	for _, i := range order {
		for counts[i] < space.Max(i) && u < uReq {
			counts[i]++
			u += w[i]
		}
		if u >= uReq {
			break
		}
	}
	if u < uReq {
		return model.Prediction{}, false
	}
	t, err := config.NewTuple(counts)
	if err != nil {
		return model.Prediction{}, false
	}
	pred := caps.Predict(d, t)
	if float64(pred.Time) >= float64(deadline) {
		// Capacity met uReq but strict inequality can fail on the
		// boundary; add one more cheapest node if possible.
		for _, i := range order {
			if counts[i] < space.Max(i) {
				counts[i]++
				t, err = config.NewTuple(counts)
				if err != nil {
					return model.Prediction{}, false
				}
				pred = caps.Predict(d, t)
				break
			}
		}
		if float64(pred.Time) >= float64(deadline) {
			return model.Prediction{}, false
		}
	}
	return pred, true
}

// BranchBoundMinCost solves the same problem exactly by depth-first
// search over node counts with a fractional lower bound: any partial
// configuration's remaining capacity can be completed at best at the
// best remaining efficiency, which bounds the final cost from below
// and prunes dominated branches. Exactness is certified against the
// exhaustive scan in tests.
func BranchBoundMinCost(caps *model.Capacities, space *config.Space, d units.Instructions,
	deadline units.Seconds) (model.Prediction, bool) {
	if deadline <= 0 {
		return model.Prediction{}, false
	}
	df := float64(d)
	uReq := df / float64(deadline)
	w, cost := rawArrays(caps)
	m := len(w)

	// bestEff[i]: the best capacity-per-dollar among types i..m-1 —
	// the completion efficiency bound for a branch at depth i.
	bestEff := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		e := w[i] / cost[i]
		bestEff[i] = math.Max(bestEff[i+1], e)
	}

	bestCost := math.Inf(1)
	var bestTuple config.Tuple
	found := false
	counts := make([]int, m)

	var dfs func(i int, u, cu float64)
	dfs = func(i int, u, cu float64) {
		if u > uReq {
			// Feasible already (strict time constraint holds:
			// u > uReq ⇒ T < T′).
			c := df * cu / u / 3600
			if c < bestCost {
				if t, err := config.NewTuple(counts); err == nil {
					bestCost = c
					bestTuple = t
					found = true
				}
			}
			// Adding more nodes can still reduce cost only if a
			// remaining type beats the current mix's efficiency; the
			// bound below handles that, so fall through.
		}
		if i == m {
			return
		}
		// Lower bound: complete with x ≥ max(0, uReq−u) capacity at
		// efficiency bestEff[i] (price per capacity 1/bestEff). The
		// bound function D·(cu + x/e)/ (u+x)/3600 is monotone in x with
		// sign e·u − ... : evaluate at both candidate extremes.
		e := bestEff[i]
		var lb float64
		if e <= 0 {
			if u <= uReq {
				return // cannot complete
			}
			lb = df * cu / u / 3600
		} else {
			xMin := math.Max(0, uReq-u)
			atXMin := df * (cu + xMin/e) / (u + xMin) / 3600
			asymptote := df / e / 3600
			lb = math.Min(atXMin, asymptote)
			if u+xMin <= 0 {
				lb = asymptote
			}
		}
		if lb >= bestCost {
			return
		}
		for k := 0; k <= space.Max(i); k++ {
			counts[i] = k
			dfs(i+1, u+float64(k)*w[i], cu+float64(k)*cost[i])
		}
		counts[i] = 0
	}
	dfs(0, 0, 0)
	if !found {
		return model.Prediction{}, false
	}
	return caps.Predict(d, bestTuple), true
}

// Gap reports the relative cost excess of a heuristic answer over the
// exact one, in percent.
func Gap(heuristic, exact model.Prediction) float64 {
	if exact.Cost <= 0 {
		return 0
	}
	return (float64(heuristic.Cost)/float64(exact.Cost) - 1) * 100
}

// rawArrays unwraps the typed capacity/cost arrays into plain float64
// slices: the search kernels here treat both axes as opaque objective
// coordinates, and keeping their inner loops raw keeps them byte-
// identical with the published comparisons.
func rawArrays(caps *model.Capacities) (w, cost []float64) {
	wT, costT := caps.NodeArrays()
	w = make([]float64, len(wT))
	cost = make([]float64, len(costT))
	for i := range wT {
		w[i] = float64(wT[i])
		cost[i] = float64(costT[i])
	}
	return w, cost
}
