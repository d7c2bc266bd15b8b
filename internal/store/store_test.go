package store

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

// characterize runs the real pipeline once per test binary.
var cached struct {
	dr profile.DemandResult
	cr profile.CapacityResult
	ok bool
}

func characterize(t *testing.T) (profile.DemandResult, profile.CapacityResult) {
	t.Helper()
	if !cached.ok {
		pf := profile.New()
		dr, err := pf.CharacterizeDemand(galaxy.App{})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := pf.CharacterizeCapacity(galaxy.App{}, true)
		if err != nil {
			t.Fatal(err)
		}
		cached.dr, cached.cr, cached.ok = dr, cr, true
	}
	return cached.dr, cached.cr
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dr, cr := characterize(t)
	c, err := FromResults(galaxy.App{}, dr, cr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.App != "galaxy" || loaded.Demand.Family != dr.Fit.Family {
		t.Fatalf("round trip lost identity: %+v", loaded)
	}
	// The rebuilt demand model must agree with the original everywhere
	// we ask.
	m, err := loaded.DemandModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []workload.Params{{N: 8192, A: 1000}, {N: 65536, A: 8000}} {
		want := float64(dr.Fit.Model.Demand(p))
		got := float64(m.Demand(p))
		if math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("demand differs after round trip at %v: %v vs %v", p, got, want)
		}
	}
}

func TestRebuiltEngineMatchesOriginal(t *testing.T) {
	dr, cr := characterize(t)
	c, err := FromResults(galaxy.App{}, dr, cr)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := c.Engine(ec2.Oregon(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// One query: the exhaustive scan answers it for less than an index
	// build, with the same answer.
	eng.SetUseIndex(false)
	pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: 8000}, units.FromHours(36))
	if err != nil || !ok {
		t.Fatalf("rebuilt engine unusable: %v %v", ok, err)
	}
	// Cross-check against an engine built directly from the results.
	direct, err := c.CapacityModel(ec2.Oregon())
	if err != nil {
		t.Fatal(err)
	}
	d := dr.Fit.Model.Demand(workload.Params{N: 65536, A: 8000})
	if got := direct.Predict(d, pred.Config); math.Abs(float64(got.Cost-pred.Cost)) > 1e-9 {
		t.Fatalf("rebuilt engine disagrees with its own inputs: %v vs %v", got.Cost, pred.Cost)
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"wrong version":  `{"version":99,"app":"galaxy","demand":{"family":"f","bases":["n"],"coeffs":[1]},"capacities":[{"type":"c4.large","per_vcpu_gips":1}],"domain":{}}`,
		"missing app":    `{"version":1,"demand":{"family":"f","bases":["n"],"coeffs":[1]},"capacities":[{"type":"c4.large","per_vcpu_gips":1}],"domain":{}}`,
		"bases mismatch": `{"version":1,"app":"g","demand":{"family":"f","bases":["n"],"coeffs":[1,2]},"capacities":[{"type":"c4.large","per_vcpu_gips":1}],"domain":{}}`,
		"no capacities":  `{"version":1,"app":"g","demand":{"family":"f","bases":["n"],"coeffs":[1]},"capacities":[],"domain":{}}`,
		"bad rate":       `{"version":1,"app":"g","demand":{"family":"f","bases":["n"],"coeffs":[1]},"capacities":[{"type":"c4.large","per_vcpu_gips":0}],"domain":{}}`,
		"unknown field":  `{"version":1,"app":"g","surprise":1,"demand":{"family":"f","bases":["n"],"coeffs":[1]},"capacities":[{"type":"c4.large","per_vcpu_gips":1}],"domain":{}}`,
	}
	for name, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDemandModelRejectsUnknownBasis(t *testing.T) {
	var c Characterization
	c.Version = FormatVersion
	c.App = "g"
	c.Demand.Bases = []string{"n*exp(a)"}
	c.Demand.Coeffs = []float64{1}
	if _, err := c.DemandModel(); err == nil {
		t.Fatal("unknown basis accepted")
	}
}

func TestCapacityModelRequiresFullCatalog(t *testing.T) {
	var c Characterization
	c.Capacities = []TypeCapacity{{Type: "c4.large", PerVCPUGIPS: 1}}
	if _, err := c.CapacityModel(ec2.Oregon()); err == nil {
		t.Fatal("partial capacity table accepted")
	}
}

func TestFromResultsRejectsAnalyticModel(t *testing.T) {
	dr, cr := characterize(t)
	analytic := dr
	analytic.Fit.Model = demandFromApp()
	if _, err := FromResults(galaxy.App{}, analytic, cr); err == nil {
		t.Fatal("analytic (basis-free) model accepted")
	}
}

func TestFitResultRebuild(t *testing.T) {
	dr, cr := characterize(t)
	c, err := FromResults(galaxy.App{}, dr, cr)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := c.FitResult()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Family != dr.Fit.Family {
		t.Fatalf("family lost: %q vs %q", fr.Family, dr.Fit.Family)
	}
}

func demandFromApp() demand.Model { return demand.FromApp(galaxy.App{}) }
