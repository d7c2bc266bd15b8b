// Differential test across entry points: one query must get one answer
// whether it goes through the library, an engine built the way the
// commands build it, or the HTTP API.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/apps/galaxy"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// answer is one configuration as an entry point reports it: the tuple
// in its canonical string form and the exact cost bits.
type answer struct {
	Config   string
	CostBits uint64
	Accuracy float64 // maxaccuracy only
}

func (a answer) String() string {
	return fmt.Sprintf("%s at $%v (a=%v)", a.Config, math.Float64frombits(a.CostBits), a.Accuracy)
}

// answers holds every query's outcome at one entry point; an
// infeasible argmin is the zero answer.
type answers struct {
	MinCost, MinTime, MaxAccuracy answer
	Feasible                      uint64
	Frontier                      []answer
}

func fromPrediction(pred model.Prediction, ok bool, accuracy float64) answer {
	if !ok {
		return answer{}
	}
	return answer{Config: pred.Config.String(), CostBits: math.Float64bits(float64(pred.Cost)), Accuracy: accuracy}
}

// viaLibrary asks eng directly, the way library callers and the
// commands do.
func viaLibrary(t *testing.T, eng *core.Engine, p workload.Params, cons core.Constraints) answers {
	t.Helper()
	var out answers
	pred, ok, err := eng.MinCostForDeadline(p, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	out.MinCost = fromPrediction(pred, ok, 0)
	if pred, ok, err = eng.MinTimeForBudget(p, cons.Budget); err != nil {
		t.Fatal(err)
	}
	out.MinTime = fromPrediction(pred, ok, 0)
	pa, pred, ok, err := eng.MaxAccuracy(p.N, cons, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	out.MaxAccuracy = fromPrediction(pred, ok, pa.A)
	an, err := eng.Analyze(p, cons, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out.Feasible = an.Feasible
	for _, f := range an.Frontier {
		out.Frontier = append(out.Frontier, answer{Config: f.Config.String(), CostBits: math.Float64bits(float64(f.Cost))})
	}
	return out
}

// viaHTTP sends the same queries to a celia-server handler.
func viaHTTP(t *testing.T, url, app string, p workload.Params, deadline units.Hours, budget units.USD) answers {
	t.Helper()
	post := func(path string, req api.Request, resp any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	best := func(resp api.OptimizeResponse) answer {
		if !resp.Feasible {
			return answer{}
		}
		tuple, err := config.NewTuple(resp.Best.Config)
		if err != nil {
			t.Fatal(err)
		}
		return answer{Config: tuple.String(), CostBits: math.Float64bits(float64(resp.Best.CostUSD)), Accuracy: resp.Accuracy}
	}
	var out answers
	var opt api.OptimizeResponse
	post("/v1/mincost", api.Request{App: app, N: p.N, A: p.A, DeadlineH: deadline}, &opt)
	out.MinCost = best(opt)
	opt = api.OptimizeResponse{}
	post("/v1/mintime", api.Request{App: app, N: p.N, A: p.A, BudgetUSD: budget}, &opt)
	out.MinTime = best(opt)
	opt = api.OptimizeResponse{}
	post("/v1/maxaccuracy", api.Request{App: app, N: p.N, DeadlineH: deadline, BudgetUSD: budget}, &opt)
	out.MaxAccuracy = best(opt)
	var an api.AnalyzeResponse
	post("/v1/analyze", api.Request{App: app, N: p.N, A: p.A, DeadlineH: deadline, BudgetUSD: budget, MaxFrontier: 1 << 20}, &an)
	out.Feasible = an.Feasible
	for _, f := range an.Frontier {
		tuple, err := config.NewTuple(f.Config)
		if err != nil {
			t.Fatal(err)
		}
		out.Frontier = append(out.Frontier, answer{Config: tuple.String(), CostBits: math.Float64bits(float64(f.CostUSD))})
	}
	return out
}

// TestEntryPointsAgree sends mincost, mintime, maxaccuracy and analyze
// for galaxy(65536, 8000) at 24 h through a default library engine, an
// engine from cli.BuildEngine, and the HTTP API, under both billing
// policies. All three must report the same configurations and the same
// cost bits, and the min-cost answer must be the exhaustive oracle's.
func TestEntryPointsAgree(t *testing.T) {
	app := galaxy.App{}
	p := workload.Params{N: 65536, A: 8000}
	deadline, budget := units.Hours(24), units.USD(150)
	cons := core.Constraints{Deadline: deadline.Seconds(), Budget: budget}
	for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
		t.Run(billing.String(), func(t *testing.T) {
			lib := coretest.PaperEngine(app)
			lib.SetBilling(billing)

			cliEng, err := cli.BuildEngine(app, false)
			if err != nil {
				t.Fatal(err)
			}
			coretest.Share(cliEng).SetBilling(billing)

			srvEng, err := cli.BuildEngine(app, false)
			if err != nil {
				t.Fatal(err)
			}
			coretest.Share(srvEng).SetBilling(billing)
			srv, err := api.NewServerFromEngines(map[string]*core.Engine{app.Name(): srvEng})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()

			got := map[string]answers{
				"library": viaLibrary(t, lib, p, cons),
				"cli":     viaLibrary(t, cliEng, p, cons),
				"http":    viaHTTP(t, ts.URL, app.Name(), p, deadline, budget),
			}
			ref := got["http"]
			if ref.MinCost.Config == "" || ref.MinTime.Config == "" || ref.MaxAccuracy.Config == "" || len(ref.Frontier) == 0 {
				t.Fatalf("degenerate reference answers: %+v", ref)
			}
			for _, name := range []string{"library", "cli"} {
				a := got[name]
				for _, c := range []struct {
					query     string
					got, want answer
				}{
					{"mincost", a.MinCost, ref.MinCost},
					{"mintime", a.MinTime, ref.MinTime},
					{"maxaccuracy", a.MaxAccuracy, ref.MaxAccuracy},
				} {
					if c.got != c.want {
						t.Errorf("%s %s = %v, http = %v", name, c.query, c.got, c.want)
					}
				}
				if a.Feasible != ref.Feasible || !reflect.DeepEqual(a.Frontier, ref.Frontier) {
					t.Errorf("%s analyze = %d feasible, %d-point frontier; http = %d feasible, %d-point frontier (or the points differ)",
						name, a.Feasible, len(a.Frontier), ref.Feasible, len(ref.Frontier))
				}
			}

			exh, ok, err := lib.MinCostExhaustive(p, cons.Deadline)
			if err != nil {
				t.Fatal(err)
			}
			if want := fromPrediction(exh, ok, 0); ref.MinCost != want {
				t.Errorf("mincost = %v at every entry point, exhaustive oracle = %v", ref.MinCost, want)
			}
		})
	}
}
