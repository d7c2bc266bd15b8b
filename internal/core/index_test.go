package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// requireSameAnalysis asserts byte-identical Analysis values: deep
// equality of the structs and equality of their JSON encodings (the
// form the serving layer caches and returns).
func requireSameAnalysis(t *testing.T, label string, idx, scan Analysis) {
	t.Helper()
	if !reflect.DeepEqual(idx, scan) {
		t.Fatalf("%s: indexed Analysis differs from scan:\nindexed: %+v\nscan:    %+v", label, idx, scan)
	}
	bi, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := json.Marshal(scan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bi, bs) {
		t.Fatalf("%s: JSON encodings differ:\n%s\n%s", label, bi, bs)
	}
}

func TestLessTupleFastMatchesLessTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	randTuple := func() config.Tuple {
		arity := 1 + rng.Intn(12)
		counts := make([]int, arity)
		for i := range counts {
			// Bias toward multi-digit counts: the string order of
			// "[1,10]" vs "[1,2]" is where a naive numeric comparison
			// would diverge from lessTuple.
			counts[i] = rng.Intn(256)
		}
		tp, err := config.NewTuple(counts)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := randTuple(), randTuple()
		if trial%5 == 0 {
			b = a // exercise the equal case
		}
		if got, want := lessTupleFast(a, b), lessTuple(a, b); got != want {
			t.Fatalf("lessTupleFast(%v, %v) = %v, lessTuple = %v", a, b, got, want)
		}
		if got, want := lessTupleFast(b, a), lessTuple(b, a); got != want {
			t.Fatalf("lessTupleFast(%v, %v) = %v, lessTuple = %v", b, a, got, want)
		}
	}
	// The documented divergence trap: "[1,10,...]" sorts before
	// "[1,2,...]" because ',' < '2' byte-wise.
	a := config.MustTuple(1, 10)
	b := config.MustTuple(1, 2)
	if !lessTupleFast(a, b) || !lessTuple(a, b) {
		t.Fatalf("string order of %v vs %v not preserved", a, b)
	}
}

func TestIndexedAnalyzeMatchesScanSmall(t *testing.T) {
	scanEng := scanEngine(t, galaxy.App{}, 2)
	idxEng := smallEngine(t, galaxy.App{}, 2)
	if !idxEng.IndexActive() {
		t.Fatal("index not active on a default per-second engine")
	}
	p := workload.Params{N: 32768, A: 2000}
	cases := []struct {
		label string
		cons  Constraints
	}{
		{"both", Constraints{Deadline: units.FromHours(24), Budget: 200}},
		{"deadline-only", Constraints{Deadline: units.FromHours(24)}},
		{"budget-only", Constraints{Budget: 150}},
		{"unconstrained", Constraints{}},
		{"infeasible", Constraints{Deadline: 1, Budget: 0.001}},
		{"tight-budget", Constraints{Deadline: units.FromHours(48), Budget: 40}},
	}
	for _, c := range cases {
		scan, err := scanEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := idxEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, c.label, idx, scan)
	}
}

func TestIndexedArgminMatchesExhaustiveSmall(t *testing.T) {
	scanEng := scanEngine(t, galaxy.App{}, 2)
	idxEng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	d, err := scanEng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, deadline := range []units.Seconds{units.FromHours(6), units.FromHours(24), units.FromHours(72), 0} {
		for _, budget := range []units.USD{30, 100, 500, 0} {
			label := fmt.Sprintf("deadline=%v budget=%v", deadline, budget)
			cons := Constraints{Deadline: deadline, Budget: budget}
			for _, obj := range []objective{objectiveCost, objectiveTime} {
				want, okW := scanEng.scanSearch(d, cons, obj)
				idx, ok := idxEng.FrontierIndex()
				if !ok {
					t.Fatal("no index")
				}
				got, okG := idx.minSearch(idxEng, d, cons, obj)
				if okW != okG {
					t.Fatalf("%s obj=%d: ok %v vs scan %v", label, obj, okG, okW)
				}
				if okW && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s obj=%d: indexed %+v != scan %+v", label, obj, got, want)
				}
			}
		}
	}
	// The public entry points against the exhaustive argmin (identical
	// tuple, not just identical cost).
	for _, deadline := range []units.Seconds{units.FromHours(12), units.FromHours(24)} {
		gotP, okG, err := idxEng.MinCostForDeadline(p, deadline)
		if err != nil {
			t.Fatal(err)
		}
		wantP, okW, err := scanEng.MinCostExhaustive(p, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if okG != okW || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("MinCostForDeadline(%v): indexed %+v/%v != exhaustive %+v/%v",
				deadline, gotP, okG, wantP, okW)
		}
	}
}

func TestIndexedMaxAccuracyMatchesScanSmall(t *testing.T) {
	scanEng := scanEngine(t, galaxy.App{}, 2)
	idxEng := smallEngine(t, galaxy.App{}, 2)
	cons := Constraints{Deadline: units.FromHours(24), Budget: 60}
	pS, predS, okS, err := scanEng.MaxAccuracy(32768, cons, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	pI, predI, okI, err := idxEng.MaxAccuracy(32768, cons, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if okS != okI || pS != pI || !reflect.DeepEqual(predS, predI) {
		t.Fatalf("MaxAccuracy: indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
			pI, predI, okI, pS, predS, okS)
	}
}

func TestIndexedEpsilonMatchesScanSmall(t *testing.T) {
	scanEng := scanEngine(t, galaxy.App{}, 2)
	idxEng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	for _, opts := range []Options{
		{EpsTime: 3600, EpsCost: 5},
		{EpsTime: 3600},
		{EpsCost: 5},
	} {
		scan, err := scanEng.Analyze(p, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := idxEng.Analyze(p, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, fmt.Sprintf("eps=%v/%v", opts.EpsTime, opts.EpsCost), idx, scan)
	}
}

func TestIndexedSamplingForcesScan(t *testing.T) {
	// Sampling needs the per-configuration walk, so an indexed engine
	// must produce exactly what the scan produces, sample included.
	scanEng := scanEngine(t, galaxy.App{}, 2)
	idxEng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	opts := Options{Workers: 4, SampleEvery: 10, SampleCap: 50}
	scan, err := scanEng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := idxEng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Sample) == 0 {
		t.Fatal("sampling returned nothing through an indexed engine")
	}
	requireSameAnalysis(t, "sampled", idx, scan)
}

func TestIndexPerHourBillingServes(t *testing.T) {
	// Per-hour ceil billing is jointly monotone in (time, unit cost),
	// so the same index serves it: queries stay routed, and they match
	// the exhaustive per-hour argmin exactly — tuple included.
	eng := smallEngine(t, galaxy.App{}, 2)
	if !eng.IndexActive() {
		t.Fatal("per-second index inactive")
	}
	eng.SetBilling(model.PerHour)
	if !eng.IndexActive() {
		t.Fatal("index inactive under per-hour billing: ceil billing is certified index-monotone")
	}
	if _, ok := eng.FrontierIndex(); !ok {
		t.Fatal("FrontierIndex withheld under per-hour billing")
	}
	p := workload.Params{N: 32768, A: 2000}
	got, okG, err := eng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	scanEng := scanEngine(t, galaxy.App{}, 2)
	scanEng.SetBilling(model.PerHour)
	want, okW, err := scanEng.MinCostExhaustive(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	if okG != okW || !reflect.DeepEqual(got, want) {
		t.Fatalf("per-hour indexed: %+v/%v != exhaustive %+v/%v", got, okG, want, okW)
	}
	// Uncertified billing policies fall back to the scan — and flip
	// back to the already-built index when billing returns to a
	// certified policy.
	eng.SetBilling(model.Billing(7))
	if eng.IndexActive() {
		t.Fatal("index active under an uncertified billing policy")
	}
	if cause := eng.IndexBypassCause(); cause != BypassBilling {
		t.Fatalf("bypass cause = %d, want BypassBilling", cause)
	}
	eng.SetBilling(model.PerSecond)
	if !eng.IndexActive() {
		t.Fatal("index did not reactivate under per-second billing")
	}
}

func TestIndexOverflowGuardFallsBack(t *testing.T) {
	old := maxIndexPairs
	maxIndexPairs = 8
	defer func() { maxIndexPairs = old }()
	eng := smallEngine(t, galaxy.App{}, 1)
	if eng.IndexActive() {
		t.Fatal("index built past the pair cap")
	}
	// Queries still answer, via the scan.
	scanEng := scanEngine(t, galaxy.App{}, 1)
	p := workload.Params{N: 32768, A: 1000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 500}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "overflow", idx, scan)
}

// requireArgminsMatchScan certifies the default engine's MinCost,
// MinTime and MaxAccuracy answers against the exhaustive scan bit for
// bit. MaxAccuracy's bisection would take ~20 paper-space scans, so its
// answer is certified at the accuracy it returns: the scan's argmin
// there must be the returned prediction.
func requireArgminsMatchScan(t *testing.T, label string, eng, scan *Engine, p workload.Params, cons Constraints) {
	t.Helper()
	got, okG, err := eng.MinCostForDeadline(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	want, okW, err := scan.MinCostExhaustive(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if okG != okW || !reflect.DeepEqual(got, want) {
		t.Errorf("%s mincost: default %+v/%v != exhaustive %+v/%v", label, got, okG, want, okW)
	}
	got, okG, err = eng.MinTimeForBudget(p, cons.Budget)
	if err != nil {
		t.Fatal(err)
	}
	want, okW, err = scan.MinTimeForBudget(p, cons.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if okG != okW || !reflect.DeepEqual(got, want) {
		t.Errorf("%s mintime: default %+v/%v != scan %+v/%v", label, got, okG, want, okW)
	}
	pa, pred, ok, err := eng.MaxAccuracy(p.N, cons, 1e-3)
	if err != nil || !ok {
		t.Fatalf("%s maxaccuracy: %v %v", label, ok, err)
	}
	d, err := scan.Demand(pa)
	if err != nil {
		t.Fatal(err)
	}
	if want, okW := scan.scanSearch(d, cons, objectiveCost); !okW || !reflect.DeepEqual(pred, want) {
		t.Errorf("%s maxaccuracy at a=%v: default %+v != scan %+v/%v", label, pa.A, pred, want, okW)
	}
}

func TestIndexGoldenPaperSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	// The golden certification: on the paper's full 10,077,695-
	// configuration space, the default engine's census and argmins must
	// reproduce the exhaustive scan byte for byte, and the index's shape
	// must match the recorded compression (EXPERIMENTS.md pins the
	// census values).
	scanEng := NewPaperEngine(galaxy.App{})
	scanEng.SetUseIndex(false)
	idxEng := paperEngine(galaxy.App{})

	idx, ok := idxEng.FrontierIndex()
	if !ok {
		t.Fatal("paper engine refused to build the index")
	}
	stats := idx.Stats()
	if stats.Pairs != 657394 {
		t.Errorf("galaxy distinct (U, c_u) pairs = %d, want 657394", stats.Pairs)
	}
	if stats.Staircase != 118 {
		t.Errorf("galaxy staircase = %d entries, want 118", stats.Staircase)
	}

	p := workload.Params{N: 65536, A: 8000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 350}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idxEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "galaxy", got, scan)
	if got.Feasible != 7916146 || len(got.Frontier) != 77 {
		t.Errorf("galaxy census = %d feasible, %d frontier; want 7916146, 77",
			got.Feasible, len(got.Frontier))
	}
	requireArgminsMatchScan(t, "galaxy", idxEng, scanEng, p, cons)

	// The paper's annotated spill point. The exhaustive scan's winner is
	// [5,5,5,1,1,0,0,0,0]: within the type-3/type-4 instance family
	// (exact 2× vCPU/price scaling) it is the same machine mix as the
	// paper's [5,5,5,3,0,0,0,0,0], but the float accumulation of the
	// (1,1) split rounds one ulp cheaper, so it is the float argmin.
	pred, okP, err := idxEng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil || !okP {
		t.Fatal(okP, err)
	}
	if pred.Config.String() != "[5,5,5,1,1,0,0,0,0]" {
		t.Errorf("spill config = %s, want [5,5,5,1,1,0,0,0,0]", pred.Config)
	}
}

func TestIndexGoldenPaperSpaceSand(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	scanEng := NewPaperEngine(sand.App{})
	scanEng.SetUseIndex(false)
	idxEng := paperEngine(sand.App{})
	p := workload.Params{N: 8192e6, A: 0.32}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 350}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idxEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "sand", got, scan)
	if got.Feasible != 543966 || len(got.Frontier) != 51 {
		t.Errorf("sand census = %d feasible, %d frontier; want 543966, 51",
			got.Feasible, len(got.Frontier))
	}
}

func TestIndexGoldenPaperSpacePerHour(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	// The per-hour golden certification: on the paper's full
	// configuration space under the billing policy the paper's own era
	// used, the default engine's Analyze and argmins must reproduce the
	// exhaustive scan byte for byte.
	scanEng := NewPaperEngine(galaxy.App{})
	scanEng.SetBilling(model.PerHour)
	scanEng.SetUseIndex(false)
	idxEng := paperEngine(galaxy.App{})
	idxEng.SetBilling(model.PerHour)
	if !idxEng.IndexActive() {
		t.Fatal("paper engine not answering from the index under per-hour billing")
	}

	p := workload.Params{N: 65536, A: 8000}
	for _, c := range []struct {
		label string
		cons  Constraints
	}{
		{"both", Constraints{Deadline: units.FromHours(24), Budget: 350}},
		{"deadline-only", Constraints{Deadline: units.FromHours(24)}},
		{"budget-only", Constraints{Budget: 350}},
		{"unconstrained", Constraints{}},
	} {
		scan, err := scanEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := idxEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, "per-hour "+c.label, got, scan)
	}
	requireArgminsMatchScan(t, "per-hour", idxEng, scanEng, p,
		Constraints{Deadline: units.FromHours(24), Budget: 350})
}

func TestFrontierCandidatesStaircase(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	cands, ok := eng.FrontierCandidates()
	if !ok || len(cands) == 0 {
		t.Fatalf("no candidates from an indexable catalog: ok=%v n=%d", ok, len(cands))
	}
	for i, c := range cands {
		if c.Config.IsEmpty() || c.U <= 0 || c.Cu <= 0 {
			t.Fatalf("candidate %d degenerate: %+v", i, c)
		}
		if i == 0 {
			continue
		}
		// The staircase is the lower cost envelope over capacity:
		// walking down in U must also walk down in c_u, or the
		// higher-capacity entry would dominate this one.
		if cands[i].U >= cands[i-1].U {
			t.Fatalf("candidate %d capacity %v not below %v", i, cands[i].U, cands[i-1].U)
		}
		if cands[i].Cu >= cands[i-1].Cu {
			t.Fatalf("candidate %d cost rate %v not below %v (dominated entry)", i, cands[i].Cu, cands[i-1].Cu)
		}
	}
}

func TestFrontierCandidatesIgnoreBillingAndOptIn(t *testing.T) {
	// Neither billing policy nor a scan-only engine blocks the build:
	// the staircase depends only on the catalog, so horizon solvers get
	// the same candidates the query index serves.
	ref := smallEngine(t, galaxy.App{}, 2)
	want, ok := ref.FrontierCandidates()
	if !ok {
		t.Fatal("reference engine did not index")
	}
	eng := scanEngine(t, galaxy.App{}, 2)
	eng.SetBilling(model.PerHour)
	if eng.FrontierBuilt() {
		t.Fatal("FrontierBuilt before any build was requested")
	}
	got, ok := eng.FrontierCandidates()
	if !ok {
		t.Fatal("per-hour engine refused to build the frontier")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates depend on billing/scan-only:\n%+v\n%+v", got, want)
	}
	if !eng.FrontierBuilt() {
		t.Fatal("FrontierBuilt false after a successful build")
	}
	if eng.IndexActive() {
		t.Fatal("query path of a scan-only engine claims the index")
	}
	if cause := eng.IndexBypassCause(); cause != BypassConfig {
		t.Fatalf("bypass cause = %d, want BypassConfig (scan-only outranks billing)", cause)
	}
}

func TestIndexBypassReason(t *testing.T) {
	scanOnly := scanEngine(t, galaxy.App{}, 1)
	if got := scanOnly.IndexBypassReason(); got != "index disabled for this engine" {
		t.Fatalf("scan-only reason = %q", got)
	}

	perHour := smallEngine(t, galaxy.App{}, 1)
	perHour.SetBilling(model.PerHour)
	if got := perHour.IndexBypassReason(); got != "" {
		t.Fatalf("per-hour engine reports bypass: %q", got)
	}

	uncertified := smallEngine(t, galaxy.App{}, 1)
	uncertified.SetBilling(model.Billing(7))
	if got := uncertified.IndexBypassReason(); got == "" || !strings.Contains(got, "not certified") {
		t.Fatalf("uncertified-billing reason = %q", got)
	}

	active := smallEngine(t, galaxy.App{}, 1)
	if got := active.IndexBypassReason(); got != "" {
		t.Fatalf("healthy engine reports bypass before build: %q", got)
	}
	if _, ok := active.FrontierCandidates(); !ok {
		t.Fatal("small catalog did not index")
	}
	if got := active.IndexBypassReason(); got != "" {
		t.Fatalf("healthy engine reports bypass after build: %q", got)
	}

	old := maxIndexPairs
	maxIndexPairs = 2
	defer func() { maxIndexPairs = old }()
	overflow := smallEngine(t, galaxy.App{}, 1)
	// Probing never builds: the overflow is invisible until a query
	// (or a horizon solve) actually tries.
	if got := overflow.IndexBypassReason(); got != "" {
		t.Fatalf("untried engine reports bypass: %q", got)
	}
	if _, ok := overflow.FrontierCandidates(); ok {
		t.Fatal("catalog compressed under a 2-pair cap")
	}
	if got := overflow.IndexBypassReason(); !strings.Contains(got, "did not compress") {
		t.Fatalf("overflow reason = %q", got)
	}
}

// TestParallelDerivationMatchesSerial pins decode/derive to its worker
// count: the single-worker parse + block fill and the multi-core
// chunked parse + parallel block fill must produce identical indexes.
// GOMAXPROCS is toggled explicitly so both paths run regardless of the
// host's core count, over a synthetic pair table big enough
// (> parallelCodecMin) to clear the parallel gate, with multi-pair
// spans in dozens of summary blocks.
func TestParallelDerivationMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const n = 40000
	pairs := make([]idxPair, n)
	var total uint64
	u := units.Rate(1)
	cu := units.USDPerHour(1)
	for i := range pairs {
		if rng.Intn(3) == 0 || i == 0 {
			u += units.Rate(rng.Float64() + 0.001) // new capacity span
			cu = units.USDPerHour(rng.Float64())
		} else {
			cu += units.USDPerHour(rng.Float64() + 0.001) // same span, costlier
		}
		counts := make([]int, 9)
		for k := range counts {
			counts[k] = rng.Intn(256)
		}
		pairs[i] = idxPair{
			u:       u,
			cu:      cu,
			count:   uint64(1 + rng.Intn(7)),
			minIdx:  uint64(i),
			lessMin: config.MustTuple(counts...),
		}
		total += pairs[i].count
	}
	payload := (&FrontierIndex{pairs: pairs, total: total}).EncodeBinary()

	decodeAt := func(procs int) *FrontierIndex {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		x, err := DecodeFrontierIndex(payload)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return x
	}
	serial := decodeAt(1)
	parallel := decodeAt(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel decode/derivation diverges from the serial path")
	}
	if !bytes.Equal(serial.EncodeBinary(), payload) || !bytes.Equal(parallel.EncodeBinary(), payload) {
		t.Fatal("round-trip is not byte-identical")
	}

	// Corruption must be rejected identically on both paths.
	for _, flip := range []int{codecHeaderLen + 17, len(payload) / 2, len(payload) - 3} {
		bad := append([]byte(nil), payload...)
		bad[flip] ^= 0x40
		prev := runtime.GOMAXPROCS(1)
		_, errSerial := DecodeFrontierIndex(bad)
		runtime.GOMAXPROCS(4)
		_, errParallel := DecodeFrontierIndex(bad)
		runtime.GOMAXPROCS(prev)
		if (errSerial == nil) != (errParallel == nil) {
			t.Fatalf("flip at %d: serial err %v, parallel err %v", flip, errSerial, errParallel)
		}
	}
}
