// The demand-invariant frontier index. A configuration's predictions
// are
//
//	T = D/U               (Eq. 2)
//	C = billCost(T, c_u)  (Eq. 5/6, or its per-hour ceil variant)
//
// so for two configurations p, q with U_p ≥ U_q and c_u,p ≤ c_u,q,
// monotonicity of IEEE-754 correctly-rounded division gives
// fl(D/U_p) ≤ fl(D/U_q) for every demand D, and joint monotonicity of
// billCost in (T, c_u) — certified per policy by
// model.Billing.Indexable — carries that through to C_p ≤ C_q:
// domination in the (capacity ↑, unit cost ↓) plane implies
// floating-point (time, cost) domination for every query. The Pareto
// staircase of the distinct (U, c_u) pairs is therefore a
// demand-invariant candidate superset of every per-query frontier, and
// one scan of the space answers all of them. Crucially the argument
// never needs billCost to be linear: per-hour ceil billing flattens
// distinct times onto the same started-hour count but never reorders
// them (fl(T/3600), math.Ceil, the max(1, ·) clamp, and fl(c_u·h) are
// each monotone), so pairs the staircase drops as (u, cu)-dominated
// are (T, C)-dominated under per-hour billing too, for every demand.
// Pairs the staircase keeps — incomparable in the (u, cu) plane — are
// resolved per query by the same billing-aware billCost the scan uses,
// which is how hour-boundary reorderings between demands are handled
// exactly rather than precomputed away (see DESIGN.md §9). Billing
// policies not certified by Indexable fall back to the exhaustive
// scan.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/units"
)

// maxIndexPairs caps the distinct (U, c_u) pair table. A catalog whose
// capacities and prices never collide would make the "index" as large
// as the space itself; past this cap the build aborts and every query
// keeps using the scan. The paper's catalog compresses 10,077,695
// configurations to 657,394 pairs (15×) and a 118-entry staircase.
// A variable only so the overflow path is testable without a
// multi-million-configuration catalog.
var maxIndexPairs = int64(4 << 20)

// idxPair aggregates every configuration sharing one exact
// (capacity, unit cost) value pair. Exact duplicates are common in real
// catalogs — within a family, k small nodes and k/2 double-size nodes
// produce bit-identical sums — so each pair carries everything the tie
// breaks need: the population count, the smallest configuration index
// (Stream2D keeps the first-inserted point on exact frontier ties, and
// the scan inserts in ascending index order), and the lessTuple-minimal
// member (the argmin queries break value ties lexicographically).
type idxPair struct {
	u       units.Rate
	cu      units.USDPerHour
	count   uint64
	minIdx  uint64
	lessMin config.Tuple
}

// idxSpan is one run of pairs sharing an exact capacity U, as
// [start, end) offsets into the (U asc, c_u asc)-sorted pair table.
// Within a span every pair predicts the same time, so feasibility and
// cost ordering reduce to a binary search on c_u.
type idxSpan struct {
	u          units.Rate
	start, end int
}

// stairStep is one staircase entry: the span's cheapest pair, kept only
// when its unit cost undercuts every higher-capacity span.
type stairStep struct {
	pairIdx    int
	start, end int // owning span bounds, for in-span tie resolution
}

// FrontierIndex is the precomputed demand-invariant view of one
// engine's configuration space. Build once with the engine's exact
// per-configuration arithmetic, then answer any query under an
// Indexable billing policy in O(|staircase| + blocks·log + the spans
// the block summaries leave undecided) instead of O(S) model
// evaluations. Immutable after construction; safe for concurrent use.
type FrontierIndex struct {
	pairs []idxPair
	spans []idxSpan
	// prefix[i] is the configuration count of pairs[:i], so a
	// cost-feasible prefix of a span counts in O(1) after the search.
	prefix []uint64
	// Per-block span summaries settle the census and the min-cost tie
	// pass without visiting every span (see blockFeasible). The
	// capacity-sorted spans form blocks of blockSpans; within block b
	// the spans are re-sorted by their last (dearest) c_u, and sorted
	// position i lives at offset b·blockSpans+i of the first three
	// tables: the span's offset within the block, its last c_u, and the
	// configuration count of positions [0, i]. blkMin holds, per block,
	// an implicit binary min-tree of each span's first (cheapest) c_u
	// over the same order: node n (1 ≤ n < blockSpans) at slot
	// b·blockSpans+n, children 2n and 2n+1, leaves n ≥ blockSpans at
	// sorted position n−blockSpans (not stored: a leaf runs the exact
	// per-span search), padding past a short last block at +Inf.
	blkOrd   []uint8
	blkLast  []units.USDPerHour
	blkCount []uint64
	blkMin   []units.USDPerHour
	// stair is the (capacity ↑, unit cost ↓) Pareto staircase in
	// descending-capacity order.
	stair     []stairStep
	total     uint64
	buildWall time.Duration
}

// IndexStats summarizes a built index for telemetry and logs.
type IndexStats struct {
	Pairs     int   // distinct exact (U, c_u) pairs
	Spans     int   // distinct exact capacities
	Staircase int   // demand-invariant frontier candidates
	BuildMS   int64 // wall-clock build time
}

// Stats reports the index's shape.
func (x *FrontierIndex) Stats() IndexStats {
	return IndexStats{
		Pairs:     len(x.pairs),
		Spans:     len(x.spans),
		Staircase: len(x.stair),
		BuildMS:   x.buildWall.Milliseconds(),
	}
}

// decTab holds the decimal rendering of every possible count byte so
// the tuple comparator never divides.
var decTab = func() (tab [256]struct {
	d [3]byte
	n uint8
}) {
	for c := 0; c < 256; c++ {
		e := &tab[c]
		switch {
		case c >= 100:
			e.d = [3]byte{byte('0' + c/100), byte('0' + c/10%10), byte('0' + c%10)}
			e.n = 3
		case c >= 10:
			e.d = [3]byte{byte('0' + c/10), byte('0' + c%10)}
			e.n = 2
		default:
			e.d = [3]byte{byte('0' + c)}
			e.n = 1
		}
	}
	return tab
}()

// lessDecimal orders two unequal count bytes the way their decimal
// renderings sort inside a tuple string. When one rendering is a proper
// prefix of the other, the next byte on the short side is that tuple's
// separator: ',' (below every digit) mid-tuple, ']' (above every digit)
// at the end — so 2 < 10 mid-tuple but 10 < 2 in the last position.
func lessDecimal(ca, cb uint8, lastA, lastB bool) bool {
	da, db := &decTab[ca], &decTab[cb]
	n := da.n
	if db.n < n {
		n = db.n
	}
	for k := uint8(0); k < n; k++ {
		if da.d[k] != db.d[k] {
			return da.d[k] < db.d[k]
		}
	}
	if da.n < db.n {
		return !lastA // a's ',' sorts below b's digit; its ']' above
	}
	return lastB // b's ',' sorts below a's digit; its ']' above
}

// lessTupleFast is lessTuple without building the two strings; the
// index build calls it once per duplicate-pair configuration (~10M
// times on the paper space) and the snapshot decoder once per restored
// pair. Equivalence to lessTuple is property-tested in index_test.go.
func lessTupleFast(a, b config.Tuple) bool {
	ma, mb := a.Len(), b.Len()
	m := ma
	if mb < m {
		m = mb
	}
	for i := 0; i < m; i++ {
		if ca, cb := a.Count(i), b.Count(i); ca != cb {
			return lessDecimal(uint8(ca), uint8(cb), i == ma-1, i == mb-1)
		}
	}
	// The common prefix matches element-wise; the shorter tuple's ']'
	// sorts above the longer one's next ',', so the longer sorts first.
	return ma > mb
}

// buildFrontierIndex scans the whole space once, aggregating exact
// (U, c_u) pairs, and derives the span table, prefix counts, block
// summaries, and the staircase. Returns nil when the pair table
// exceeds maxIndexPairs (the catalog does not compress).
func buildFrontierIndex(e *Engine) *FrontierIndex {
	start := time.Now()
	w, nodeCost := e.caps.NodeArrays()
	workers := runtime.GOMAXPROCS(0)

	type pairKey struct {
		u  units.Rate
		cu units.USDPerHour
	}
	shards := make([]map[pairKey]*idxPair, workers)
	for i := range shards {
		shards[i] = make(map[pairKey]*idxPair, 1<<12)
	}
	var distinct atomic.Int64
	var aborted atomic.Bool
	e.space.ForEachParallelIndexed(workers, func(worker int, k uint64, t config.Tuple) {
		if aborted.Load() {
			return
		}
		var u units.Rate
		var cu units.USDPerHour
		for i := 0; i < t.Len(); i++ {
			if m := t.Count(i); m > 0 {
				u += units.Rate(m) * w[i]
				cu += units.USDPerHour(m) * nodeCost[i]
			}
		}
		sh := shards[worker]
		key := pairKey{u, cu}
		if agg, ok := sh[key]; ok {
			agg.count++
			if lessTupleFast(t, agg.lessMin) {
				agg.lessMin = t
			}
			return
		}
		// Chunks walk ascending indices, so the first sighting in a
		// shard is that shard's minimal index for the pair.
		sh[key] = &idxPair{u: u, cu: cu, count: 1, minIdx: k, lessMin: t}
		if distinct.Add(1) > maxIndexPairs {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return nil
	}

	merged := shards[0]
	for _, sh := range shards[1:] {
		for key, agg := range sh {
			if cur, ok := merged[key]; ok {
				cur.count += agg.count
				if agg.minIdx < cur.minIdx {
					cur.minIdx = agg.minIdx
				}
				if lessTupleFast(agg.lessMin, cur.lessMin) {
					cur.lessMin = agg.lessMin
				}
			} else {
				merged[key] = agg
			}
		}
	}
	pairs := make([]idxPair, 0, len(merged))
	// Map order is fine here: pairs are fully sorted below by their
	// unique (u, cu) key, so output order is total.
	for _, agg := range merged {
		pairs = append(pairs, *agg)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].cu < pairs[j].cu
	})
	x := finishIndex(pairs, e.space.Size())
	x.buildWall = time.Since(start)
	return x
}

// finishIndex derives every secondary table — spans, prefix counts,
// block summaries, and the staircase — from a (u asc, cu asc)-sorted
// pair table. Shared by the scan build above and the snapshot decoder
// (index_codec.go): both produce the derived state through this one
// code path, so a decoded index is structurally identical to the
// freshly built one it was encoded from.
func finishIndex(pairs []idxPair, total uint64) *FrontierIndex {
	x := &FrontierIndex{pairs: pairs, total: total}

	x.prefix = make([]uint64, len(x.pairs)+1)
	// A cheap serial pass finds the span boundaries and prefix sums;
	// the block summaries then derive per block-aligned span range in
	// parallel. Ranges touch disjoint blocks, so the result does not
	// depend on the worker count (property-tested in index_test.go).
	for i := 0; i < len(x.pairs); {
		x.prefix[i+1] = x.prefix[i] + x.pairs[i].count
		j := i + 1
		//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
		for ; j < len(x.pairs) && x.pairs[j].u == x.pairs[i].u; j++ {
			x.prefix[j+1] = x.prefix[j] + x.pairs[j].count
		}
		x.spans = append(x.spans, idxSpan{u: x.pairs[i].u, start: i, end: j})
		i = j
	}
	blocks := (len(x.spans) + blockSpans - 1) / blockSpans
	x.blkOrd = make([]uint8, len(x.spans))
	x.blkLast = make([]units.USDPerHour, len(x.spans))
	x.blkCount = make([]uint64, len(x.spans))
	x.blkMin = make([]units.USDPerHour, blocks*blockSpans)
	workers := runtime.GOMAXPROCS(0)
	if most := 1 + len(x.pairs)/parallelCodecMin; workers > most {
		workers = most
	}
	chunk := (blocks + workers - 1) / workers * blockSpans
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(x.spans))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for b := lo; b < hi; b += blockSpans {
				x.fillBlock(b)
			}
		}(lo, hi)
	}
	wg.Wait()

	// Staircase: walk spans from the highest capacity down; a span's
	// cheapest pair survives only when it strictly undercuts every
	// higher-capacity span (otherwise some pair with no less capacity
	// and no more cost dominates the whole span).
	bestCu := units.USDPerHour(0)
	haveBest := false
	for si := len(x.spans) - 1; si >= 0; si-- {
		sp := x.spans[si]
		if cheapest := x.pairs[sp.start].cu; !haveBest || cheapest < bestCu {
			x.stair = append(x.stair, stairStep{pairIdx: sp.start, start: sp.start, end: sp.end})
			bestCu, haveBest = cheapest, true
		}
	}
	return x
}

// lessWithin returns the lessTuple-minimal member of span sp's n
// cheapest pairs, and minIdxWithin their minimal configuration index.
// Both resolve value ties, whose achievers are always a cost-ordered
// prefix of one or more capacity spans: distinct exact (U, c_u) pairs
// — typically ULP-apart accumulations of a mathematically identical
// configuration family — can round to bit-equal (time, cost) under a
// particular demand, and the scan breaks such ties by configuration
// order, so the index must aggregate over the whole rounding-collapse
// class, not just the staircase pair that represents it. Spans are
// short (at most 23 pairs on the paper catalogs) and only tie classes
// are aggregated, so the minima are taken on demand, not stored per
// pair.
func (x *FrontierIndex) lessWithin(sp idxSpan, n int) config.Tuple {
	best := x.pairs[sp.start].lessMin
	for _, pr := range x.pairs[sp.start+1 : sp.start+n] {
		if lessTupleFast(pr.lessMin, best) {
			best = pr.lessMin
		}
	}
	return best
}

func (x *FrontierIndex) minIdxWithin(sp idxSpan, n int) uint64 {
	best := x.pairs[sp.start].minIdx
	for _, pr := range x.pairs[sp.start+1 : sp.start+n] {
		best = min(best, pr.minIdx)
	}
	return best
}

// blockSpans is the number of capacity-consecutive spans one summary
// block covers. A power of two, so each block's min-tree is a complete
// implicit binary tree; 256 also lets a span's offset within its block
// fit a byte. On the paper catalog a census leaves a few spans per
// block undecided.
const blockSpans = 256

// fillBlock derives the summary of the block whose first span is
// first: its spans ordered by last c_u (ties by offset, so the order is
// total), their last c_u, running configuration counts, and the
// min-tree of first c_u over that order.
func (x *FrontierIndex) fillBlock(first int) {
	m := min(blockSpans, len(x.spans)-first)
	type keyed struct {
		last, first units.USDPerHour
		off         uint8
	}
	var buf [blockSpans]keyed
	keys := buf[:m]
	for i := range keys {
		sp := x.spans[first+i]
		keys[i] = keyed{x.pairs[sp.end-1].cu, x.pairs[sp.start].cu, uint8(i)}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		switch {
		case a.last < b.last:
			return -1
		case a.last > b.last:
			return 1
		}
		return int(a.off) - int(b.off)
	})
	var run uint64
	for i, k := range keys {
		sp := x.spans[first+int(k.off)]
		run += x.prefix[sp.end] - x.prefix[sp.start]
		x.blkOrd[first+i] = k.off
		x.blkLast[first+i] = k.last
		x.blkCount[first+i] = run
	}
	firstCu := func(pos int) units.USDPerHour {
		if pos >= m {
			return units.USDPerHour(math.Inf(1))
		}
		return keys[pos].first
	}
	tree := x.blkMin[first : first+blockSpans]
	for n := blockSpans / 2; n < blockSpans; n++ {
		tree[n] = min(firstCu(2*n-blockSpans), firstCu(2*n+1-blockSpans))
	}
	for n := blockSpans/2 - 1; n >= 1; n-- {
		tree[n] = min(tree[2*n], tree[2*n+1])
	}
}

// descend walks the min-tree of the block whose first span is first,
// calling leaf with the span index of every sorted position ≥ from
// that no ancestor prunes. prune receives a subtree's cheapest first
// c_u and must only reject a subtree when it rejects every span whose
// first c_u is at least that — the callers' tests are monotone in c_u
// because billCost is (model.Billing.Indexable). A subtree straddling
// from is tested on its whole minimum, a lower bound of the part at or
// after from, so pruning it stays exact.
func (x *FrontierIndex) descend(first, from int, prune func(units.USDPerHour) bool, leaf func(si int)) {
	m := min(blockSpans, len(x.spans)-first)
	tree := x.blkMin[first : first+blockSpans]
	n := 1
	for {
		depth := bits.Len(uint(n)) - 1
		width := blockSpans >> depth
		pos := (n - 1<<depth) * width
		if pos+width > from && pos < m {
			if n >= blockSpans {
				leaf(first + int(x.blkOrd[first+pos]))
			} else if !prune(tree[n]) {
				n *= 2
				continue
			}
		}
		// Next subtree in pre-order: climb past right children, then
		// step to the right sibling; climbing past the root ends it.
		for n&1 == 1 {
			n >>= 1
		}
		if n == 0 {
			return
		}
		n++
	}
}

// firstFeasibleSpan returns the first span whose predicted time beats
// the deadline. Predicted time is non-increasing in capacity (IEEE
// division is monotone), so the time-feasible spans are the suffix of
// the capacity-sorted span table from it.
func (x *FrontierIndex) firstFeasibleSpan(d units.Instructions, deadline units.Seconds) int {
	return sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
}

// headEnd returns the end of the partial block starting at span lo:
// spans before the next block boundary share a block with
// time-infeasible ones, whose summary does not apply, so they are
// answered per span.
func (x *FrontierIndex) headEnd(lo int) int {
	return min((lo+blockSpans-1)/blockSpans*blockSpans, len(x.spans))
}

// spanFeasible counts span si's configurations priced under budget at
// its time T: cost is non-decreasing in c_u within a span, so they are
// a cost-ordered prefix found by one search.
func (x *FrontierIndex) spanFeasible(e *Engine, d units.Instructions, si int, budget units.USD) uint64 {
	sp := x.spans[si]
	T := units.Time(d, sp.u)
	b := sort.Search(sp.end-sp.start, func(i int) bool {
		return e.billCost(T, x.pairs[sp.start+i].cu) >= budget
	})
	return x.prefix[sp.start+b] - x.prefix[sp.start]
}

// blockFeasible counts the budget-feasible configurations of the block
// whose first span is first, every span of which is time-feasible.
// Inside the block T_hi = T(first span) ≥ T(s) ≥ T_lo = T(last span),
// and billCost is jointly monotone as computed
// (model.Billing.Indexable), so with no padding:
//   - billCost(T_hi, last c_u of s) < budget: every pair of s is feasible;
//   - billCost(T_lo, first c_u of s) ≥ budget: no pair of s is.
//
// The first test holds on a prefix of the last-c_u order, counted in
// one search; the second prunes the min-tree over the rest, and only
// the spans it cannot settle run the exact per-span search.
func (x *FrontierIndex) blockFeasible(e *Engine, d units.Instructions, first int, budget units.USD) uint64 {
	m := min(blockSpans, len(x.spans)-first)
	tHi := units.Time(d, x.spans[first].u)
	tLo := units.Time(d, x.spans[first+m-1].u)
	last := x.blkLast[first : first+m]
	k := sort.Search(m, func(i int) bool { return e.billCost(tHi, last[i]) >= budget })
	var n uint64
	if k > 0 {
		n = x.blkCount[first+k-1]
	}
	x.descend(first, k,
		func(cu units.USDPerHour) bool { return e.billCost(tLo, cu) >= budget },
		func(si int) { n += x.spanFeasible(e, d, si, budget) })
	return n
}

// feasibleCount is the census's exact feasible count: the per-span
// search over the partial head block, then one summary walk per block.
func (x *FrontierIndex) feasibleCount(e *Engine, d units.Instructions, deadline units.Seconds, budget units.USD) uint64 {
	lo := x.firstFeasibleSpan(d, deadline)
	head := x.headEnd(lo)
	var feasible uint64
	for si := lo; si < head; si++ {
		feasible += x.spanFeasible(e, d, si, budget)
	}
	for first := head; first < len(x.spans); first += blockSpans {
		feasible += x.blockFeasible(e, d, first, budget)
	}
	return feasible
}

// minCostTie gathers the lessTuple-minimal configuration costing
// exactly bestC, the minimal cost over time-feasible pairs, from every
// time-feasible span: no such pair costs less, so the achievers are
// each span's cost-ordered prefix at bestC. Per block, a subtree whose
// cheapest first c_u already costs more than bestC at T_lo costs more
// at every member's own time, so the min-tree prunes all but the spans
// that can hold an achiever.
func (x *FrontierIndex) minCostTie(e *Engine, d units.Instructions, deadline units.Seconds, bestC units.USD) config.Tuple {
	var best config.Tuple
	have := false
	consider := func(si int) {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		ub := sort.Search(sp.end-sp.start, func(i int) bool {
			return e.billCost(T, x.pairs[sp.start+i].cu) > bestC
		})
		if ub == 0 {
			return
		}
		if cand := x.lessWithin(sp, ub); !have || lessTupleFast(cand, best) {
			best, have = cand, true
		}
	}
	lo := x.firstFeasibleSpan(d, deadline)
	head := x.headEnd(lo)
	for si := lo; si < head; si++ {
		consider(si)
	}
	for first := head; first < len(x.spans); first += blockSpans {
		tLo := units.Time(d, x.spans[min(first+blockSpans, len(x.spans))-1].u)
		x.descend(first, 0, func(cu units.USDPerHour) bool { return e.billCost(tLo, cu) > bestC }, consider)
	}
	return best
}

// spanRange returns the half-open range of span indices whose exact
// capacity predicts exactly T under demand d: predicted time is
// non-increasing in capacity (IEEE division is monotone), so the range
// is contiguous in the capacity-sorted span table. Distinct exact
// capacities ULP apart can round to the same T — the rounding-collapse
// class the scan's ties run over — so the range may hold several spans.
func (x *FrontierIndex) spanRange(d units.Instructions, T units.Seconds) (lo, hi int) {
	lo = sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) <= T
	})
	hi = sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < T
	})
	return lo, hi
}

// census answers Analyze's aggregate questions from the index: the
// exact feasible count and the streaming frontier, both produced with
// the same float operations and the same insertion order as the scan.
func (x *FrontierIndex) census(e *Engine, d units.Instructions, cons Constraints) (uint64, []pareto.Point) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	feasible := x.feasibleCount(e, d, deadline, budget)

	// The staircase is a superset of every per-query frontier's
	// (time, cost) values (see the package comment's monotonicity
	// argument), so streaming it reproduces the scan's frontier values.
	var stream pareto.Stream2D
	for _, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		T := units.Time(d, pr.u)
		C := e.billCost(T, pr.cu)
		if T >= deadline || C >= budget {
			continue
		}
		//lint:allow unitsafe pareto.Point is the unit-agnostic frontier kernel; axes are re-typed on rebuild by the caller
		stream.Add(pareto.Point{X: float64(T), Y: float64(C), ID: pr.minIdx})
	}
	front := stream.Frontier()

	// The scan's frontier IDs are the minimal configuration index over
	// every configuration that rounds to exactly the point's (T, C) —
	// its Stream2D sees configurations in ascending-index order and
	// keeps the first on exact value ties — so each staircase
	// representative's ID is widened to its rounding-collapse class:
	// every span predicting exactly T, restricted to the pairs costing
	// exactly C. Those pairs are a prefix of each such span (cost is
	// non-decreasing in c_u, and a cheaper pair in an equal-T span would
	// have knocked the point off the frontier), found by one search per
	// span.
	for fi := range front {
		T, C := units.Seconds(front[fi].X), units.USD(front[fi].Y)
		lo, hi := x.spanRange(d, T)
		best := front[fi].ID
		for si := lo; si < hi; si++ {
			sp := x.spans[si]
			ub := sort.Search(sp.end-sp.start, func(i int) bool {
				return e.billCost(T, x.pairs[sp.start+i].cu) > C
			})
			if ub > 0 {
				best = min(best, x.minIdxWithin(sp, ub))
			}
		}
		front[fi].ID = best
	}
	return feasible, front
}

// minSearch answers the argmin queries from the index with the scan's
// exact semantics: minimal objective under both constraints, ties
// broken by the lexicographically least tuple.
func (x *FrontierIndex) minSearch(e *Engine, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	first := x.firstFeasibleStep(e, d, deadline, budget)
	if first < 0 {
		return model.Prediction{}, false
	}
	if obj == objectiveTime {
		// Minimal time = maximal capacity: the first feasible step from
		// the top carries the optimal time — any skipped pair with more
		// capacity is dominated by an already-rejected step whose time
		// and cost it can only match or exceed. The scan breaks time ties
		// by the lexicographically least tuple over every feasible
		// achiever, so the winner is gathered from the budget-feasible
		// prefix of every span that predicts exactly the winning time
		// (the collapse class), not just the step's own span.
		T := units.Time(d, x.pairs[x.stair[first].pairIdx].u)
		lo, hi := x.spanRange(d, T)
		var bestTuple config.Tuple
		have := false
		for si := lo; si < hi; si++ {
			sp := x.spans[si]
			b := sort.Search(sp.end-sp.start, func(i int) bool {
				return e.billCost(T, x.pairs[sp.start+i].cu) >= budget
			})
			if b == 0 {
				continue
			}
			if cand := x.lessWithin(sp, b); !have || lessTupleFast(cand, bestTuple) {
				bestTuple, have = cand, true
			}
		}
		return e.caps.PredictBilled(d, bestTuple, e.billing), true
	}
	// Minimal cost: the staircase holds the optimal value — every
	// time-feasible pair is weakly dominated by a time-feasible step
	// costing no more — but the scan's tie-break runs over every
	// achiever, which minCostTie gathers from the spans.
	bestC := units.USD(math.Inf(1))
	for _, st := range x.stair[first:] {
		pr := &x.pairs[st.pairIdx]
		T := units.Time(d, pr.u)
		if C := e.billCost(T, pr.cu); T < deadline && C < budget && C < bestC {
			bestC = C
		}
	}
	return e.caps.PredictBilled(d, x.minCostTie(e, d, deadline, bestC), e.billing), true
}

// firstFeasibleStep returns the position of the first staircase step,
// from the top, whose pair meets both constraints, or -1 when none
// does. Every feasible pair is weakly dominated by such a step, so it
// also decides whether the query is feasible at all.
func (x *FrontierIndex) firstFeasibleStep(e *Engine, d units.Instructions, deadline units.Seconds, budget units.USD) int {
	for i, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		if T := units.Time(d, pr.u); T < deadline && e.billCost(T, pr.cu) < budget {
			return i
		}
	}
	return -1
}

// Candidate is one staircase step of the demand-invariant frontier:
// an exact (capacity, unit cost) value pair together with a
// deterministic representative configuration (the lessTuple-minimal
// member of the step's cheapest pair). Under any Indexable billing
// policy every per-query optimum takes its (time, cost) values from
// some candidate, whatever the demand — the property the schedule
// solver builds on: one candidate table prices every timestep of a
// trace.
type Candidate struct {
	Config config.Tuple
	U      units.Rate
	Cu     units.USDPerHour
}

// Candidates returns the staircase in descending-capacity order. The
// slice is freshly allocated; the index itself stays immutable.
func (x *FrontierIndex) Candidates() []Candidate {
	out := make([]Candidate, len(x.stair))
	for i, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		out[i] = Candidate{Config: pr.lessMin, U: pr.u, Cu: pr.cu}
	}
	return out
}

// FrontierCandidates builds the index if needed and returns its
// staircase candidates regardless of the engine's billing policy or
// scan-only setting: the (U, c_u) pair table and its staircase depend
// only on the catalog (billing enters at query-time pricing), so
// horizon solvers can reuse one build even on engines whose per-query
// paths run the scan. ok is false when the catalog does not compress
// under the pair cap.
func (e *Engine) FrontierCandidates() ([]Candidate, bool) {
	idx := e.ensureIndex()
	if idx == nil {
		return nil, false
	}
	return idx.Candidates(), true
}

// Frontier returns the billing-independent frontier index object,
// building it on first use regardless of the engine's scan-only
// setting and billing policy — the snapshot layer persists exactly this object. ok
// is false when the catalog does not compress under the pair cap.
func (e *Engine) Frontier() (*FrontierIndex, bool) {
	x := e.ensureIndex()
	return x, x != nil
}

// ensureIndex performs the lazy at-most-once build: the first caller
// builds under idxMu, later callers read the published pointer. An
// install (snapshot restore) that happened first counts as the build.
func (e *Engine) ensureIndex() *FrontierIndex {
	if e.idxTried.Load() {
		return e.idx.Load()
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	if e.idxTried.Load() {
		return e.idx.Load()
	}
	// The build's worker join runs under idxMu on purpose: the lock is
	// exactly what makes the build at-most-once, the fan-out is a static
	// chunking over GOMAXPROCS workers that touches no other locks, and
	// every later caller takes the fast path above without locking.
	//lint:allow lockdisciplineip deliberate build-under-lock: bounded internal worker join, no other locks involved
	x := buildFrontierIndex(e)
	if x != nil {
		e.idx.Store(x)
		e.idxReady.Store(true)
	}
	e.idxTried.Store(true)
	return x
}

// InstallIndex atomically publishes a prebuilt index — typically one
// decoded from an on-disk snapshot — as this engine's frontier index.
// In-flight queries keep the pointer they already loaded; new queries
// see the installed index immediately. The index must cover exactly
// this engine's configuration space; callers are responsible for
// matching the catalog itself (internal/snapshot pins it with a
// fingerprint). Installing does not change query routing — a
// scan-only engine stays scan-only, and the billing certification gate
// still applies.
func (e *Engine) InstallIndex(x *FrontierIndex) error {
	if x == nil {
		return fmt.Errorf("core: install of nil index")
	}
	if x.total != e.space.Size() {
		return fmt.Errorf("core: index covers %d configurations, space has %d", x.total, e.space.Size())
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	e.idx.Store(x)
	e.idxReady.Store(true)
	e.idxTried.Store(true)
	return nil
}

// RebuildIndex rebuilds the frontier index from the engine's current
// catalog and atomically swaps it in, leaving the previously published
// index serving until the very last store — queries never observe a
// half-built index. A panic inside the build is contained and returned
// as an error with the old index (if any) still in place, so a
// background rebuild can never take the serving path down. Returns the
// new index's stats on success.
func (e *Engine) RebuildIndex() (st IndexStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: index rebuild panic: %v", r)
		}
	}()
	x := buildFrontierIndex(e)
	if x == nil {
		e.idxTried.Store(true)
		return IndexStats{}, fmt.Errorf("core: catalog did not compress under the pair cap")
	}
	e.idxMu.Lock()
	e.idx.Store(x)
	e.idxReady.Store(true)
	e.idxTried.Store(true)
	e.idxMu.Unlock()
	return x.Stats(), nil
}

// SetUseIndex(false) makes the engine scan-only: every query runs the
// exhaustive scan, which returns the same answers as the index at the
// scan's cost. The default (true) answers from the frontier index,
// built lazily on the first routed query and reused by every later
// one. Not safe to flip concurrently with queries: set it during engine
// assembly, before serving.
func (e *Engine) SetUseIndex(on bool) { e.scanOnly = !on }

// UseIndex reports whether the engine may answer from the frontier
// index, i.e. it is not scan-only.
func (e *Engine) UseIndex() bool { return !e.scanOnly }

// indexFor returns the index when this query may be answered from it:
// the engine is not scan-only, the billing policy is certified
// index-monotone (model.Billing.Indexable — per-second and per-hour
// both are), and the build did not overflow maxIndexPairs.
func (e *Engine) indexFor() *FrontierIndex {
	if e.scanOnly || !e.billing.Indexable() {
		return nil
	}
	return e.ensureIndex()
}

// IndexActive reports whether queries are currently answered from the
// frontier index, building it if queries may use it and it does not
// exist yet.
func (e *Engine) IndexActive() bool { return e.indexFor() != nil }

// FrontierIndex exposes the engine's index (building it on first use);
// ok is false when the engine is scan-only, the billing policy is not
// certified index-monotone, or the catalog did not compress under
// maxIndexPairs.
func (e *Engine) FrontierIndex() (*FrontierIndex, bool) {
	idx := e.indexFor()
	return idx, idx != nil
}

// IndexBuilt reports whether queries are currently routed to an
// already-built index, without triggering the build: response headers
// and telemetry probe this on paths (cache hits, bypassed engines)
// that must not pay the build cost. The atomic load orders the idx
// pointer read after the build's completing store.
func (e *Engine) IndexBuilt() bool {
	return !e.scanOnly && e.billing.Indexable() && e.idxReady.Load()
}

// FrontierBuilt reports whether the billing-independent pair table and
// staircase exist (built by any path, including FrontierCandidates),
// without triggering a build. Distinct from IndexBuilt: a scan-only
// engine's per-query paths bypass the index, yet a horizon solve on it
// is still index-backed.
func (e *Engine) FrontierBuilt() bool { return e.idxReady.Load() }

// BypassCause classifies why analytic queries on an engine are (or
// would be) answered by the exhaustive scan instead of the frontier
// index, so operators can tell a configuration choice from a
// capability gap (the serving layer counts and labels them
// separately).
type BypassCause int

const (
	// BypassNone: the index path is active or will activate on the
	// first routed query.
	BypassNone BypassCause = iota
	// BypassConfig: the engine was made scan-only (SetUseIndex(false))
	// — a configuration choice.
	BypassConfig
	// BypassBilling: the engine's billing policy is not certified
	// index-monotone (model.Billing.Indexable) — a capability gap.
	// Per-second and per-hour are both certified; only unknown future
	// policies land here.
	BypassBilling
	// BypassPairCap: the catalog did not compress under maxIndexPairs,
	// so the build aborted — a capability gap.
	BypassPairCap
)

// IndexBypassCause reports the engine's bypass classification without
// triggering a build. Scan-only is reported before billing: a
// deliberately scan-backed engine stays "config" whatever it bills.
func (e *Engine) IndexBypassCause() BypassCause {
	switch {
	case e.scanOnly:
		return BypassConfig
	case !e.billing.Indexable():
		return BypassBilling
	case e.idxTried.Load() && !e.idxReady.Load():
		return BypassPairCap
	default:
		return BypassNone
	}
}

// IndexBypassReason explains why analytic queries on this engine are
// (or would be) answered by the exhaustive scan instead of the
// frontier index: a scan-only engine, an uncertified billing policy,
// or a catalog over the pair cap. Either path returns the same
// answers; the reason only explains the cost. It returns "" when the
// index path is active or will activate on the first routed query, and
// never triggers a build itself, so operators can probe it at startup
// for free.
func (e *Engine) IndexBypassReason() string {
	switch e.IndexBypassCause() {
	case BypassConfig:
		return "index disabled for this engine"
	case BypassBilling:
		return fmt.Sprintf("billing policy %s is not certified index-monotone; every query falls back to the exhaustive scan", e.billing)
	case BypassPairCap:
		return "catalog did not compress under the pair cap; queries fall back to the exhaustive scan"
	default:
		return ""
	}
}
