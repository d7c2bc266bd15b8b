package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/units"
)

// Request is one generated query: the HTTP body the server receives,
// plus the decoded parameters the oracle and the in-process ladder
// replay through the library entry points.
type Request struct {
	Kind string // analyze, mincost, mintime, maxaccuracy, schedule, risk
	App  string
	Body []byte
	Hot  bool // drawn from the workload's repeat set

	N, A      float64
	DeadlineH float64 // 0 when unconstrained
	BudgetUSD float64 // 0 when unconstrained

	Trace demand.Trace // schedule only

	Hazard float64 // risk only
	Trials int
	Seed   uint64
}

// Path is the request's endpoint.
func (r *Request) Path() string { return "/v1/" + r.Kind }

// appSpec holds the per-application parameter ranges the generators
// draw from. The ranges bracket each app's cost-time frontier at its
// reference (n, a): the fastest and cheapest frontier points are
// (9.47 h, $133.8) and (90.8 h, $94.9) for galaxy, (0.872 h, $12.33)
// and (8.37 h, $8.74) for x264, (17.0 h, $240.7) and (163 h, $170.7)
// for sand.
type appSpec struct {
	Name               string
	N, A               float64
	BudgetLo, BudgetHi float64 // mintime budgets, USD
	DeadlineLo         float64 // planning deadlines, hours: tight ...
	DeadlineHi         float64 // ... to loose
	FastH              float64 // fastest frontier time, hours
	// Horizon traces: five-minute steps sized so that the peak needs a
	// large slice of the catalog and the trough one cheap node.
	TraceA, TraceBase, TracePeak float64
}

var appSpecs = []appSpec{
	{Name: "galaxy", N: 65536, A: 8000, BudgetLo: 90, BudgetHi: 140, DeadlineLo: 8, DeadlineHi: 1000, FastH: 9.466,
		TraceA: 50, TraceBase: 6000, TracePeak: 60000},
	{Name: "sand", N: 8192000000, A: 0.32, BudgetLo: 165, BudgetHi: 250, DeadlineLo: 15, DeadlineHi: 2000, FastH: 17.03,
		TraceA: 0.32, TraceBase: 3e6, TracePeak: 3e7},
	{Name: "x264", N: 8000, A: 20, BudgetLo: 8.4, BudgetHi: 12.6, DeadlineLo: 0.8, DeadlineHi: 100, FastH: 0.8721,
		TraceA: 20, TraceBase: 60, TracePeak: 600},
}

// probeBudget is the MinTime budget of the set-up probe: twice the
// largest budget any workload draws, so the probe never shares a cache
// key with a measured request.
func probeBudget(s appSpec) float64 { return 2 * s.BudgetHi }

// kindShare is one entry of a workload's kind mix.
type kindShare struct {
	Kind   string
	Weight int
}

// Workload describes one closed-loop traffic mix. Why each exists is
// recorded in design.json and BENCHMARK.json.
type Workload struct {
	Name string
	// Conns is the number of closed-loop connections: each sends its
	// next request only after the previous response's last byte.
	Conns int
	// Rate is the nominal request rate on a 2-core host. The request
	// list holds Rate×seconds requests, so a run measures about
	// --seconds there and every run with the same --seconds does the
	// same work.
	Rate int
	Mix  []kindShare
	// HotShare of the requests repeat one of HotSet keys; the rest are
	// fresh keys, each sent once.
	HotShare float64
	HotSet   int
	// LadderLen caps how many requests of the list the in-process
	// ladder replays per layer in a traced run.
	LadderLen int
}

var workloads = []Workload{
	{
		Name:  "interactive",
		Conns: 1, Rate: 7000,
		Mix:      []kindShare{{"mintime", 1}},
		HotShare: 0.25, HotSet: 48,
		LadderLen: 20000,
	},
	{
		Name:  "planning",
		Conns: 2, Rate: 400,
		Mix:       []kindShare{{"analyze", 2}, {"mincost", 2}, {"maxaccuracy", 1}},
		LadderLen: 1000,
	},
	{
		Name:  "horizon",
		Conns: 2, Rate: 50,
		Mix:      []kindShare{{"schedule", 3}, {"risk", 2}},
		HotShare: 0.2, HotSet: 12,
		LadderLen: 150,
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Generate builds the workload's request list for a seed: Rate×seconds
// requests, deterministic in (workload, seed, seconds).
//
// The list is stratified so that two seeds differ in which keys they
// send but not in how much work they ask for: kind and app counts are
// exact, each (kind, app) group draws its continuous parameter by
// Latin hypercube sampling (one draw per equal-probability stratum),
// and exactly round(HotShare×len) positions repeat a hot key.
func Generate(w Workload, seed uint64, seconds int) []Request {
	total := w.Rate * seconds
	if total < 1 {
		total = 1
	}
	rng := detrand.New(detrand.Mix(seed, 0))
	hotCount := int(math.Round(w.HotShare * float64(total)))
	hotSet := 0
	if hotCount > 0 {
		hotSet = min(w.HotSet, hotCount)
	}
	// The hot set and the cold keys are drawn together, so every key in
	// the list is distinct from every other unless it is a hot repeat.
	keys := drawKeys(w, rng, total-hotCount+hotSet)
	hot, cold := keys[:hotSet], keys[hotSet:]
	for i := range hot {
		hot[i].Hot = true
	}

	order := perm(rng, total)
	reqs := make([]Request, total)
	for i, pos := range order {
		if i < hotCount {
			reqs[pos] = hot[i%hotSet]
		} else {
			reqs[pos] = cold[i-hotCount]
		}
	}
	return reqs
}

// equalWeights spreads each kind evenly over the apps.
var equalWeights = func() []int {
	w := make([]int, len(appSpecs))
	for i := range w {
		w[i] = 1
	}
	return w
}()

// drawKeys draws n distinct requests with exact kind and app counts.
func drawKeys(w Workload, rng *detrand.Source, n int) []Request {
	weights := make([]int, len(w.Mix))
	for i, m := range w.Mix {
		weights[i] = m.Weight
	}
	var out []Request
	for ki, kc := range apportion(n, weights) {
		perApp := apportion(kc, equalWeights)
		for ai, ac := range perApp {
			spec := appSpecs[ai]
			strata := perm(rng, ac)
			for j := 0; j < ac; j++ {
				u := (float64(strata[j]) + rng.Float64()) / float64(ac)
				out = append(out, draw(w.Mix[ki].Kind, spec, u, rng))
			}
		}
	}
	shuffled := make([]Request, len(out))
	for i, p := range perm(rng, len(out)) {
		shuffled[p] = out[i]
	}
	return shuffled
}

// draw builds one request of kind for app; u in [0,1) is the
// stratified draw of the kind's main traffic dimension.
func draw(kind string, s appSpec, u float64, rng *detrand.Source) Request {
	r := Request{Kind: kind, App: s.Name, N: s.N, A: s.A}
	switch kind {
	case "mintime":
		r.BudgetUSD = logUniform(s.BudgetLo, s.BudgetHi, u)
	case "mincost":
		r.DeadlineH = logUniform(s.DeadlineLo, s.DeadlineHi, u)
	case "analyze":
		r.DeadlineH = logUniform(s.DeadlineLo, s.DeadlineHi, u)
		r.BudgetUSD = logUniform(s.BudgetLo, 1.5*s.BudgetHi, rng.Float64())
	case "maxaccuracy":
		r.A = 0
		r.DeadlineH = logUniform(s.DeadlineLo, s.DeadlineHi, u)
	case "schedule":
		// Horizon length is the stratified dimension: 96..288 steps
		// (8..24 h of five-minute steps); the shape is one of the three
		// generators.
		steps := 96 + int(u*193)
		r.Trace = traceFor(s, steps, rng.Uint64(), int(rng.Uint64()%3))
	case "risk":
		r.DeadlineH = logUniform(1.1*s.FastH, 4*s.FastH, u)
		r.Hazard = 0.02 + 0.18*rng.Float64()
		r.Trials = 24
		r.Seed = rng.Uint64()
	default:
		panic("celiabench: unknown kind " + kind)
	}
	r.Body = encodeBody(r)
	return r
}

func traceFor(s appSpec, steps int, seed uint64, shape int) demand.Trace {
	var tr demand.Trace
	switch shape {
	case 0:
		tr = demand.Diurnal(demand.DiurnalSpec{Steps: steps, Step: 300, A: s.TraceA,
			BaseN: s.TraceBase, PeakN: s.TracePeak, Period: 288, Jitter: 0.04, Seed: seed})
	case 1:
		tr = demand.Bursty(demand.BurstySpec{Steps: steps, Step: 300, A: s.TraceA,
			BaseN: s.TraceBase, BurstN: 0.5 * s.TracePeak, Onset: 0.03, Decay: 6, Jitter: 0.04, Seed: seed})
	default:
		tr = demand.Ramp(demand.RampSpec{Steps: steps, Step: 300, A: s.TraceA,
			FromN: s.TraceBase, ToN: s.TracePeak, Jitter: 0.04, Seed: seed})
	}
	tr.App = s.Name
	return tr
}

// scheduleBody and riskBody mirror the server's request schemas for
// the two endpoints whose body types the api package keeps private.
type scheduleBody struct {
	App   string       `json:"app"`
	Trace demand.Trace `json:"trace"`
}

type riskBody struct {
	App           string      `json:"app"`
	N             float64     `json:"n"`
	A             float64     `json:"a"`
	DeadlineH     units.Hours `json:"deadline_hours"`
	HazardPerHour float64     `json:"hazard_per_hour"`
	Trials        int         `json:"trials"`
	Seed          uint64      `json:"seed"`
}

func encodeBody(r Request) []byte {
	var v any
	switch r.Kind {
	case "schedule":
		v = scheduleBody{App: r.App, Trace: r.Trace}
	case "risk":
		v = riskBody{App: r.App, N: r.N, A: r.A, DeadlineH: units.Hours(r.DeadlineH),
			HazardPerHour: r.Hazard, Trials: r.Trials, Seed: r.Seed}
	default:
		v = api.Request{App: r.App, N: r.N, A: r.A,
			DeadlineH: units.Hours(r.DeadlineH), BudgetUSD: units.USD(r.BudgetUSD)}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func logUniform(lo, hi, u float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// perm returns a seeded Fisher–Yates permutation of 0..n-1.
func perm(rng *detrand.Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// apportion splits n into parts proportional to weights by the
// largest-remainder method, so the parts always sum to n.
func apportion(n int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	parts := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := n
	for i, w := range weights {
		parts[i] = n * w / sum
		rem[i] = n * w % sum
		left -= parts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		parts[best]++
		rem[best] = -1
	}
	return parts
}
