package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// detSource adapts detrand's splitmix64 stream to math/rand.Source so
// the randomized-catalog helper runs on the repo's deterministic
// generator: the trial sequence is pinned by the seed alone, not by
// math/rand's generator choice.
type detSource struct{ s *detrand.Source }

func (d detSource) Int63() int64   { return int64(d.s.Uint64() >> 1) }
func (d detSource) Seed(_ int64)   {}
func (d detSource) Uint64() uint64 { return d.s.Uint64() }

// TestIndexEqualsScanRandomized is the randomized certification of the
// default (indexed) engine: across random catalogs, constraints
// (including unconstrained and infeasible ones), its Analyze and all
// argmin queries must equal the exhaustive scan exactly — same floats,
// same tie winners.
func TestIndexEqualsScanRandomized(t *testing.T) {
	rng := rand.New(detSource{detrand.New(0xce11a)})
	for trial := 0; trial < 30; trial++ {
		eng := randomEngine(t, rng)
		maxCap := 0.0
		eng.Space().ForEach(func(tp config.Tuple) bool {
			if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
				maxCap = u
			}
			return true
		})
		deadline := units.Seconds(3600 * (1 + 20*rng.Float64()))
		frac := 0.2 + 0.7*rng.Float64()
		d := maxCap * frac * float64(deadline)
		p := workload.Params{N: d, A: 1}

		// Cycle through constraint shapes: both axes, one axis,
		// unconstrained (zero = +Inf), and an unmeetable deadline.
		var conss []Constraints
		budget := units.USD(0.01 + 100*rng.Float64())
		conss = append(conss,
			Constraints{Deadline: deadline, Budget: budget},
			Constraints{Deadline: deadline},
			Constraints{Budget: budget},
			Constraints{},
			Constraints{Deadline: 1e-9},
		)
		for ci, cons := range conss {
			eng.SetUseIndex(false)
			scanAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng.SetUseIndex(true)
			idxAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !eng.IndexActive() {
				t.Fatalf("trial %d: index inactive on a per-second engine", trial)
			}
			if !reflect.DeepEqual(idxAn, scanAn) {
				t.Fatalf("trial %d cons %d: indexed Analysis %+v != scan %+v",
					trial, ci, idxAn, scanAn)
			}

			requireSearchMatchesScan(t, eng, p, cons, fmt.Sprintf("trial %d cons %d", trial, ci))
		}

		// Codec round-trip: the snapshot payload must decode to an index
		// bit-identical to the built one — pair table and every derived
		// table — and the decoded index must re-encode to the same
		// bytes, so a restored process is indistinguishable from one
		// that paid the build.
		built := eng.indexFor()
		if built == nil {
			t.Fatalf("trial %d: no index to encode", trial)
		}
		payload := built.EncodeBinary()
		decoded, err := DecodeFrontierIndex(payload)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(decoded, built) {
			t.Fatalf("trial %d: decoded index differs from built", trial)
		}
		if re := decoded.EncodeBinary(); !bytes.Equal(re, payload) {
			t.Fatalf("trial %d: re-encoded payload differs (%d vs %d bytes)",
				trial, len(re), len(payload))
		}

		// MaxAccuracy bisects over searchBest: index on and off must
		// land on the same rung and prediction.
		cons := Constraints{Deadline: deadline, Budget: budget}
		eng.SetUseIndex(false)
		pS, predS, okS, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetUseIndex(true)
		pI, predI, okI, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if okS != okI || pS != pI || !reflect.DeepEqual(predS, predI) {
			t.Fatalf("trial %d: MaxAccuracy indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
				trial, pI, predI, okI, pS, predS, okS)
		}

		// Per-hour billing must route *through* the same index: ceil'd
		// cost is still jointly monotone in (time, unit cost), so the
		// billing-independent staircase stays a valid candidate
		// superset and every answer — census, frontier, argmin tuple,
		// tie metadata — must match the scan bit for bit.
		eng.SetBilling(model.PerHour)
		eng.SetUseIndex(true)
		if !eng.IndexActive() {
			t.Fatalf("trial %d: index inactive under per-hour billing", trial)
		}
		for ci, cons := range conss {
			eng.SetUseIndex(false)
			scanAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng.SetUseIndex(true)
			idxAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(idxAn, scanAn) {
				t.Fatalf("trial %d cons %d: per-hour indexed Analysis %+v != scan %+v",
					trial, ci, idxAn, scanAn)
			}
			requireSearchMatchesScan(t, eng, p, cons, fmt.Sprintf("trial %d cons %d per-hour", trial, ci))
		}
		eng.SetUseIndex(false)
		pHS, predHS, okHS, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetUseIndex(true)
		pHI, predHI, okHI, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if okHS != okHI || pHS != pHI || !reflect.DeepEqual(predHS, predHI) {
			t.Fatalf("trial %d: per-hour MaxAccuracy indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
				trial, pHI, predHI, okHI, pHS, predHS, okHS)
		}
	}
}

// requireSearchMatchesScan checks the default routing of both argmin
// objectives, and the public MinCost entry point, against the
// exhaustive scan on an engine answering from its index.
func requireSearchMatchesScan(t *testing.T, eng *Engine, p workload.Params, cons Constraints, label string) {
	t.Helper()
	if !eng.IndexActive() {
		t.Fatalf("%s: default engine not answering from the index", label)
	}
	dem, err := eng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []objective{objectiveCost, objectiveTime} {
		got, okG := eng.searchBest(dem, cons, obj)
		want, okW := eng.scanSearch(dem, cons, obj)
		if okG != okW || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s obj %d: default (%+v, %v) != scan (%+v, %v)", label, obj, got, okG, want, okW)
		}
	}
	got, okG, err := eng.MinCostForDeadline(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	want, okW, err := eng.MinCostExhaustive(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if okG != okW || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: MinCostForDeadline %+v/%v != MinCostExhaustive %+v/%v", label, got, okG, want, okW)
	}
}

// TestIndexPerHourPairCapFallsBack keeps the scan-fallback contract
// under per-hour billing: a catalog exceeding the pair cap must bypass
// the index with the pair-cap cause (not the billing one) and still
// answer bit-identically from the scan.
func TestIndexPerHourPairCapFallsBack(t *testing.T) {
	old := maxIndexPairs
	maxIndexPairs = 2
	defer func() { maxIndexPairs = old }()
	rng := rand.New(detSource{detrand.New(0xce11a)})
	eng := randomEngine(t, rng)
	eng.SetBilling(model.PerHour)
	maxCap := 0.0
	eng.Space().ForEach(func(tp config.Tuple) bool {
		if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
			maxCap = u
		}
		return true
	})
	deadline := units.FromHours(5)
	p := workload.Params{N: maxCap * 0.5 * float64(deadline), A: 1}
	cons := Constraints{Deadline: deadline, Budget: 50}

	scanEng := randomEngine(t, rand.New(detSource{detrand.New(0xce11a)}))
	scanEng.SetUseIndex(false)
	scanEng.SetBilling(model.PerHour)
	want, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.IndexActive() {
		t.Fatal("index active past the pair cap")
	}
	if cause := eng.IndexBypassCause(); cause != BypassPairCap {
		t.Fatalf("bypass cause = %d, want BypassPairCap", cause)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pair-cap fallback diverged: %+v != %+v", got, want)
	}
}
