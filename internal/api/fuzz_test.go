package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
)

// fuzzRoutes are the POST endpoints whose bodies come from untrusted
// clients; the fuzzer picks one per input.
var fuzzRoutes = []string{"/v1/analyze", "/v1/mincost", "/v1/mintime", "/v1/maxaccuracy", "/v1/risk", "/v1/schedule"}

// fuzzSeeds are request bodies the endpoint tests send, valid and
// invalid, keyed by route.
var fuzzSeeds = []struct{ route, body string }{
	{"/v1/mincost", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`},
	{"/v1/mincost", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24,"oops":1}`},
	{"/v1/mincost", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":-1}`},
	{"/v1/mincost", `{"app":"galaxy","n":1,"a":1,"deadline_hours":1}`},
	{"/v1/mincost", `{"app":"blender","n":1,"a":1,"deadline_hours":1}`},
	{"/v1/analyze", `{"app":"galaxy","n":65536,"a":8000}`},
	{"/v1/analyze", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24,"budget_usd":350,"max_frontier":5}`},
	{"/v1/mintime", `{"app":"galaxy","n":65536,"a":8000,"budget_usd":150}`},
	{"/v1/mintime", `{"app":"galaxy","n":65536,"a":8000}`},
	{"/v1/maxaccuracy", `{"app":"galaxy","n":65536,"deadline_hours":24,"budget_usd":150}`},
	{"/v1/maxaccuracy", `{"app":"galaxy","n":65536,"confidence":0.9}`},
	{"/v1/risk", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24,"hazard_per_hour":0.05,"trials":16,"seed":7}`},
	{"/v1/risk", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24,"config":[2,0,0,0,0,0,0,0,0]}`},
	{"/v1/risk", `{"app":"galaxy","n":16,"a":20,"deadline_hours":1,"config":[-1,0,0,0,0,0,0,0,0]}`},
	{"/v1/risk", `{"app":"galaxy","n":16,"a":20,"deadline_hours":1,"trials":100001}`},
	{"/v1/schedule", `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,12000,24000,48000,24000,12000,6000]}}`},
	{"/v1/schedule", `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000],"typo":true}}`},
	{"/v1/schedule", `{"app":"galaxy","trace":{"version":9,"step_seconds":300,"a":50,"steps_n":[6000]}}`},
	{"/v1/schedule", `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,1]},"boot_seconds":301}`},
	{"/v1/schedule", `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000]},"hazard_per_hour":0.1,"risk_trials":20,"risk_every":2}`},
}

// FuzzAPIRequest drives arbitrary bodies through ServeHTTP into every
// POST endpoint of a server over a small config.Uniform(9, 2) galaxy
// engine. No workload is mounted, so risk bodies are decoded and
// validated but never simulated; every analytic body that validates is
// answered by the engine. Whatever the body, the server must not panic
// or answer 500, and every non-2xx reply must be the JSON error
// envelope.
func FuzzAPIRequest(f *testing.F) {
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 2)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, galaxy.App{}), demand.FromApp(galaxy.App{}), space, galaxy.App{}.Domain())
	if err != nil {
		f.Fatal(err)
	}
	s, err := NewServerFromEngines(map[string]*core.Engine{"galaxy": eng})
	if err != nil {
		f.Fatal(err)
	}
	for _, sd := range fuzzSeeds {
		for i, r := range fuzzRoutes {
			if r == sd.route {
				f.Add(uint8(i), []byte(sd.body))
			}
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500 %s", path, body, rec.Body.String())
		}
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var env errorBody
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil || env.Error == "" {
			t.Fatalf("%s %q: status %d without the JSON error envelope: %v", path, body, rec.Code, err)
		}
	})
}
