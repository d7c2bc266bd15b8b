package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serving"
	"repro/internal/units"
)

// kernelKinds are the request kinds whose library call the core rung
// times, with the per-layer metric each feeds and its unit.
var kernelKinds = []struct {
	Kind, Metric, Unit string
	Probe              int // requests timed when the workload sends none of this kind
}{
	{"analyze", "core.analyze_us", "us", 100},
	{"mincost", "core.mincost_us", "us", 100},
	{"maxaccuracy", "core.maxaccuracy_us", "us", 50},
	{"mintime", "core.mintime_us", "us", 2000},
	{"schedule", "schedule.solve_ms", "ms", 10},
	{"risk", "risk.estimate_ms", "ms", 10},
}

// probeRequests returns, for kinds the workload does not send, the
// first requests of that kind from a one-second list of the workload
// that does, so every traced run reports every kernel.
func probeRequests(w Workload, seed uint64) map[string][]Request {
	own := map[string]bool{}
	for _, m := range w.Mix {
		own[m.Kind] = true
	}
	out := map[string][]Request{}
	for _, k := range kernelKinds {
		if own[k.Kind] {
			continue
		}
		for _, other := range workloads {
			for _, r := range Generate(other, seed, 1) {
				if r.Kind == k.Kind && len(out[k.Kind]) < k.Probe {
					out[k.Kind] = append(out[k.Kind], r)
				}
			}
		}
	}
	return out
}

// coreRung times each request's library call on the indexed engines
// and returns the median per kernel kind, in the kind's unit.
func coreRung(ctx context.Context, tr *tracer, engines map[string]*core.Engine, reqs []Request, probes map[string][]Request) (map[string]float64, error) {
	durs := map[string][]float64{}
	timeOne := func(i int, r *Request) error {
		d, err := coreCall(ctx, engines[r.App], r)
		if err != nil {
			return fmt.Errorf("core %s: %w", r.Kind, err)
		}
		end := time.Now()
		tr.add("core."+r.Kind, i, -1, end.Add(-d), end)
		durs[r.Kind] = append(durs[r.Kind], float64(d))
		return nil
	}
	for i := range reqs {
		if err := timeOne(i, &reqs[i]); err != nil {
			return nil, err
		}
	}
	for _, k := range kernelKinds {
		for i := range probes[k.Kind] {
			if err := timeOne(-1, &probes[k.Kind][i]); err != nil {
				return nil, err
			}
		}
	}
	out := map[string]float64{}
	for _, k := range kernelKinds {
		scale := float64(time.Microsecond)
		if k.Unit == "ms" {
			scale = float64(time.Millisecond)
		}
		out[k.Metric] = percentile(durs[k.Kind], 50) / scale
	}
	return out, nil
}

// query builds the serving key the server's handler builds for r; the
// trace hash stands in for the schedule handler's policy digest, which
// is constant across the benchmark's requests.
func query(r *Request) serving.Query {
	q := serving.Query{Kind: r.Kind, App: r.App, N: r.N, A: r.A,
		DeadlineHours: units.Hours(r.DeadlineH), BudgetUSD: units.USD(r.BudgetUSD)}
	switch r.Kind {
	case "analyze":
		q.MaxFrontier = maxFrontierRows
	case "maxaccuracy":
		q.A = 0
	case "schedule":
		q = serving.Query{Kind: r.Kind, App: r.App, Extra: r.Trace.Hash()}
	case "risk":
		q.HazardPerHour, q.Trials, q.Seed = r.Hazard, r.Trials, r.Seed
	}
	return q
}

// servingRung replays reqs through a fresh Frontdoor.Do. A span wraps
// each Do and a child span the compute closure the benchmark passes,
// so the Frontdoor's self time is the Do span minus its child. It
// returns that self time per request.
func servingRung(ctx context.Context, tr *tracer, engines map[string]*core.Engine, reqs []Request) ([]time.Duration, error) {
	fd, err := serving.NewFrontdoor(engines, serving.Config{})
	if err != nil {
		return nil, err
	}
	defer fd.Wait()
	roots := make([]int, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		root := tr.begin("serving.do", i, -1)
		_, _, err := fd.Do(ctx, query(r), func(ctx context.Context, eng *core.Engine) ([]byte, error) {
			c := tr.begin("serving.compute", i, root)
			defer tr.end(c)
			v, err := respond(ctx, eng, r, false)
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		})
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("serving %s: %w", r.Kind, err)
		}
		roots[i] = root
	}
	self := selfTimes(tr.spans)
	out := make([]time.Duration, len(reqs))
	for i, id := range roots {
		out[i] = self[id]
	}
	return out, nil
}

// apiRung replays reqs through a fresh api.Server's ServeHTTP with a
// recorder. For each request it returns the handler time minus the
// compute time the Frontdoor's serving.compute_ms histogram gained
// during the call — the api and serving layers' own time on that very
// request — and the mean response size in KiB.
func apiRung(tr *tracer, engines map[string]*core.Engine, reqs []Request) ([]time.Duration, float64, error) {
	fd, err := serving.NewFrontdoor(engines, serving.Config{})
	if err != nil {
		return nil, 0, err
	}
	defer fd.Wait()
	srv, err := api.NewServer(fd, api.WithApps(cli.Apps()))
	if err != nil {
		return nil, 0, err
	}
	compute := fd.Metrics().Histogram("serving.compute_ms")
	out := make([]time.Duration, len(reqs))
	var bytesOut int
	for i := range reqs {
		r := &reqs[i]
		hr := httptest.NewRequest(http.MethodPost, r.Path(), bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		c0 := compute.Sum()
		id := tr.begin("api.serve", i, -1)
		srv.ServeHTTP(rec, hr)
		tr.end(id)
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("api %s: status %d: %s", r.Kind, rec.Code, rec.Body.String())
		}
		computed := time.Duration((compute.Sum() - c0) * float64(time.Millisecond))
		out[i] = tr.spans[id].End - tr.spans[id].Start - computed
		bytesOut += rec.Body.Len()
	}
	return out, float64(bytesOut) / float64(len(reqs)) / 1024, nil
}

func usP50(ds []time.Duration) float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return percentile(us, 50)
}

// counterDelta is after-before for one /debug/metrics counter.
func counterDelta(before, after serverMetrics, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}
