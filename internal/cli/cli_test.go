package cli

import (
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

func TestAppsRegistry(t *testing.T) {
	names := AppNames()
	if len(names) != 3 {
		t.Fatalf("registry has %d apps: %v", len(names), names)
	}
	want := []string{"galaxy", "sand", "x264"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("AppNames = %v, want %v", names, want)
		}
	}
}

func TestLookupApp(t *testing.T) {
	app, err := LookupApp("galaxy")
	if err != nil || app.Name() != "galaxy" {
		t.Fatalf("LookupApp(galaxy) = %v, %v", app, err)
	}
	if _, err := LookupApp("blender"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestBuildEngineGroundTruth(t *testing.T) {
	app, err := LookupApp("galaxy")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := BuildEngine(app, false)
	if err != nil {
		t.Fatal(err)
	}
	// One query: the exhaustive scan answers it for less than an index
	// build, with the same answer.
	eng.SetUseIndex(false)
	if eng.Space().Size() != 10077695 {
		t.Fatalf("space size = %d", eng.Space().Size())
	}
	pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: 8000}, units.FromHours(24))
	if err != nil || !ok {
		t.Fatalf("engine unusable: %v %v", ok, err)
	}
	if pred.Cost <= 0 {
		t.Fatal("non-positive cost")
	}
}

func TestBuildEngineMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement pipeline is compute-heavy")
	}
	app, err := LookupApp("x264")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := BuildEngine(app, true)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetUseIndex(false) // one query: see TestBuildEngineGroundTruth
	if _, ok, err := eng.MinCostForDeadline(workload.Params{N: 8000, A: 20}, units.FromHours(48)); err != nil || !ok {
		t.Fatalf("measured engine unusable: %v %v", ok, err)
	}
}
