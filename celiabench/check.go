package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/model"
)

// optimize builds the mincost/mintime/maxaccuracy response the
// server's handlers build.
func optimize(app string, pred model.Prediction, feasible bool, accuracy float64) api.OptimizeResponse {
	resp := api.OptimizeResponse{App: app, Feasible: feasible}
	if feasible {
		resp.Accuracy = accuracy
		resp.Best = &api.ConfigResult{
			Config: pred.Config.Counts(), TimeHours: pred.Time.InHours(), CostUSD: pred.Cost}
	}
	return resp
}

// decodeStrict decodes a response body into the kind's response type,
// refusing unknown fields and trailing data.
func decodeStrict(kind string, body []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var err error
	var v any
	switch kind {
	case "analyze":
		var a api.AnalyzeResponse
		err = dec.Decode(&a)
		v = a
	case "mincost", "mintime", "maxaccuracy":
		var o api.OptimizeResponse
		err = dec.Decode(&o)
		v = o
	case "schedule":
		var s api.ScheduleResponse
		err = dec.Decode(&s)
		v = s
	case "risk":
		var rr api.RiskResponse
		err = dec.Decode(&rr)
		v = rr
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	if dec.More() {
		return nil, errors.New("schema: trailing data after the response object")
	}
	return v, nil
}

// checkResponse validates one reply: transport, status, X-Index on
// every analytic kind, the response schema, and invariants that hold
// for every correct answer. It returns the decoded body.
func checkResponse(r *Request, resp *response) (any, error) {
	if resp.Err != nil {
		return nil, resp.Err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("status %d: %s", resp.Status, bytes.TrimSpace(resp.Body))
	}
	if r.Kind != "risk" && resp.XIndex != "on" {
		return nil, fmt.Errorf("X-Index %q, want on", resp.XIndex)
	}
	v, err := decodeStrict(r.Kind, resp.Body)
	if err != nil {
		return nil, err
	}
	if err := invariants(r, v); err != nil {
		return nil, err
	}
	return v, nil
}

func invariants(r *Request, v any) error {
	switch x := v.(type) {
	case api.AnalyzeResponse:
		if x.App != r.App || x.Total == 0 || x.Feasible > x.Total || len(x.Frontier) > maxFrontierRows ||
			(x.Feasible == 0) != (len(x.Frontier) == 0) {
			return fmt.Errorf("analyze: inconsistent census (total %d, feasible %d, %d frontier rows)",
				x.Total, x.Feasible, len(x.Frontier))
		}
	case api.OptimizeResponse:
		if x.App != r.App || x.Feasible != (x.Best != nil) {
			return fmt.Errorf("%s: feasible=%v with best=%v", r.Kind, x.Feasible, x.Best)
		}
		if x.Best != nil && r.Kind == "mintime" && float64(x.Best.CostUSD) > r.BudgetUSD {
			return fmt.Errorf("mintime: cost %v over budget %v", x.Best.CostUSD, r.BudgetUSD)
		}
	case api.ScheduleResponse:
		if x.App != r.App || x.Steps != r.Trace.Steps() || len(x.Timeline) != x.Steps || x.TraceHash != r.Trace.Hash() {
			return fmt.Errorf("schedule: %d steps, %d timeline rows, hash %s", x.Steps, len(x.Timeline), x.TraceHash)
		}
	case api.RiskResponse:
		if x.App != r.App || x.Trials != r.Trials || x.MissProbability < 0 || x.MissProbability > 1 {
			return fmt.Errorf("risk: %d trials, miss probability %v", x.Trials, x.MissProbability)
		}
	}
	return nil
}

// oracleQuota is how many distinct keys per kind get an oracle answer.
// The exhaustive scans cost ~0.3 s each, so their kinds get few.
var oracleQuota = map[string]int{
	"mintime": 30, "maxaccuracy": 12, "analyze": 3, "mincost": 3, "schedule": 4, "risk": 4,
}

// oracle computes, untimed and in-process, the expected answers for a
// seeded sample of the list's distinct keys. Analyze and MinCost use
// the exhaustive scan (Analyze on an engine with the index off,
// MinCostExhaustive); MinTime, MaxAccuracy, schedule and risk use the
// indexed engines, because the library's default decomposed search
// can differ from the scan by one ulp. Keys are request bodies.
func oracle(ctx context.Context, reqs []Request, seed uint64, indexed map[string]*core.Engine) (map[string]any, error) {
	scan := map[string]*core.Engine{}
	for _, spec := range appSpecs {
		eng, err := newEngine(spec.Name)
		if err != nil {
			return nil, err
		}
		eng.SetUseIndex(false)
		scan[spec.Name] = eng
	}
	want := map[string]any{}
	taken := map[string]int{}
	for _, i := range perm(detrand.New(detrand.Mix(seed, 1)), len(reqs)) {
		r := &reqs[i]
		key := string(r.Body)
		if _, dup := want[key]; dup || taken[r.Kind] >= oracleQuota[r.Kind] {
			continue
		}
		taken[r.Kind]++
		var v any
		var err error
		if r.Kind == "analyze" || r.Kind == "mincost" {
			v, err = respond(ctx, scan[r.App], r, true)
		} else {
			v, err = respond(ctx, indexed[r.App], r, false)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle %s %s: %w", r.Kind, key, err)
		}
		want[key] = v
	}
	return want, nil
}

// verdict is the outcome of checking a run's replies.
type verdict struct {
	Sent, Failed, OracleChecked, OracleMismatch int
	FirstError                                  string
}

// checkAll checks every sent reply, compares sampled ones with the
// oracle bit for bit, and requires repeats of a key to return the
// bytes of its first reply.
func checkAll(reqs []Request, resps []response, want map[string]any) verdict {
	var v verdict
	first := map[string][]byte{}
	fail := func(i int, err error) {
		v.Failed++
		if v.FirstError == "" {
			v.FirstError = fmt.Sprintf("request %d (%s %s): %v", i, reqs[i].Kind, reqs[i].Body, err)
		}
	}
	for i := range resps {
		resp := &resps[i]
		if !resp.Sent {
			continue
		}
		v.Sent++
		r := &reqs[i]
		got, err := checkResponse(r, resp)
		if err != nil {
			fail(i, err)
			continue
		}
		key := string(r.Body)
		if prev, ok := first[key]; ok && !bytes.Equal(prev, resp.Body) {
			fail(i, errors.New("repeat of a key returned different bytes"))
			continue
		}
		first[key] = resp.Body
		exp, ok := want[key]
		if !ok {
			continue
		}
		v.OracleChecked++
		if !reflect.DeepEqual(got, exp) {
			v.OracleMismatch++
			fail(i, fmt.Errorf("oracle mismatch: got %+v, want %+v", got, exp))
		}
	}
	return v
}
