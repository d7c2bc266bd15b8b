// Command celiabench measures celia-server end to end and layer by
// layer. Run it from the root of a checkout through its wrapper, which
// builds this command and cmd/celia-server from the tree:
//
//	bash celiabench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//	bash celiabench/run.sh --workload planning --seed 1 --seconds 10 --trace 1
//	bash celiabench/run.sh --steady 5 --workload all --seconds 10
//
// An untraced run (--trace 0) builds the frontier indexes once and
// saves them as snapshots (untimed), launches three fresh servers that
// restore from them, reports the median set-up time, and replays the
// workload's seeded request list against the third over loopback. It
// checks every reply and prints the end-to-end metrics.
//
// A traced run (--trace 1) replays the same list through each layer's
// public entry point in-process — the library call, Frontdoor.Do,
// api.Server.ServeHTTP — and then over HTTP against a server with
// GODEBUG=gctrace=1, and prints the per-layer metrics. Its spans are
// written to .bench_build/celiabench/spans-<workload>-<seed>.jsonl.
//
// --steady k runs each workload k times untraced with seeds seed..seed+k-1
// and prints each end-to-end metric's median, quartiles, range and
// spread against the bounds in BENCHMARK.json.
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
)

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is one run's metrics and the verdict on its replies.
type outcome struct {
	Metrics []metric
	Verdict verdict
}

type bench struct {
	serverBin  string
	work       string // scratch directory inside the checkout
	snapDir    string
	seconds    int
	indexBuild time.Duration
}

// maxWindow bounds one measured window so a run ends within three
// minutes even on a host several times slower than the one the request
// rates were chosen on.
const maxWindow = 50 * time.Second

func main() { os.Exit(run()) }

// run is main with deferred clean-up: it returns the exit code instead
// of exiting, so the snapshot directory is removed and every server it
// started is stopped on every path.
func run() int {
	var (
		wlName    = flag.String("workload", "", "workload name, or all (with --steady)")
		seed      = flag.Uint64("seed", 1, "seed of the request list")
		seconds   = flag.Int("seconds", 10, "nominal length of the measured window; the request list holds rate×seconds requests")
		traced    = flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
		steady    = flag.Int("steady", 0, "run each workload this many times untraced and print the spread of every end-to-end metric")
		root      = flag.String("root", "", "checkout root (holds BENCHMARK.json)")
		serverBin = flag.String("server", "", "celia-server binary built from the checkout")
		work      = flag.String("work", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	if *serverBin == "" || *work == "" || *seconds < 1 {
		return fail(errors.New("usage: run through celiabench/run.sh (needs --server, --work and --seconds ≥ 1)"))
	}
	b := &bench{serverBin: *serverBin, work: *work, seconds: *seconds,
		snapDir: filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))}
	defer os.RemoveAll(b.snapDir)
	if err := b.prepare(); err != nil {
		return fail(err)
	}
	if *steady > 0 {
		if err := b.steady(*wlName, *seed, *steady, filepath.Join(*root, "BENCHMARK.json")); err != nil {
			return fail(err)
		}
		return 0
	}
	w, err := lookupWorkload(*wlName)
	if err != nil {
		return fail(err)
	}
	var out outcome
	if *traced == 1 {
		out, err = b.traced(w, *seed)
	} else {
		out, err = b.untraced(w, *seed)
	}
	if err != nil {
		return fail(err)
	}
	printOutcome(w.Name, *seed, out)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "celiabench:", err)
	return 1
}

// prepare builds every app's frontier index and saves the snapshots
// the servers restore from. It is untimed and happens once per
// invocation; the built engines are dropped so the measured windows
// run without them.
func (b *bench) prepare() error {
	if err := os.MkdirAll(b.snapDir, 0o755); err != nil {
		return err
	}
	_, build, err := buildIndexed(b.snapDir)
	if err != nil {
		return err
	}
	b.indexBuild = build
	releaseMemory()
	return nil
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// listAndOracle generates the seeded request list and computes the
// oracle's expected answers on engines restored from the snapshots.
func (b *bench) listAndOracle(w Workload, seed uint64) ([]Request, map[string]any, error) {
	reqs := Generate(w, seed, b.seconds)
	engines, _, err := restoreIndexed(b.snapDir)
	if err != nil {
		return nil, nil, err
	}
	want, err := oracle(context.Background(), reqs, seed, engines)
	return reqs, want, err
}

// untraced is one end-to-end run.
func (b *bench) untraced(w Workload, seed uint64) (outcome, error) {
	reqs, want, err := b.listAndOracle(w, seed)
	if err != nil {
		return outcome{}, err
	}
	releaseMemory()

	// Set up three times; the median is setup_s and the last server
	// serves the window.
	var setups []float64
	var srv *server
	for k := 0; k < 3; k++ {
		s, err := startServer(b.serverBin, b.snapDir, false)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, s.Setup.Seconds())
		if k < 2 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	// The list is replayed in consecutive segments on the same server.
	// Each segment yields every windowed metric and the run reports
	// their medians, so a host hiccup that spans fewer than half the
	// segments does not move the result.
	host0 := readHost()
	stopAt := time.Now().Add(maxWindow)
	resps := make([]response, len(reqs))
	var rps, p50, p95, cpuPerReq []float64
	var wall time.Duration
	for _, seg := range segments(len(reqs), numSegments) {
		cpu0, err := srv.cpuTicks()
		if err != nil {
			return outcome{}, err
		}
		part, segWall := replay(srv.base, reqs[seg[0]:seg[1]], w.Conns, stopAt)
		cpu1, err := srv.cpuTicks()
		if err != nil {
			return outcome{}, err
		}
		copy(resps[seg[0]:], part)
		lat := sentLatenciesMs(part)
		if len(lat) == 0 {
			break
		}
		if n := tailSamples(lat, 95); n < 10 {
			fmt.Printf("warning: a segment leaves only %d samples beyond p95\n", n)
		}
		wall += segWall
		rps = append(rps, float64(len(lat))/segWall.Seconds())
		p50 = append(p50, percentile(lat, 50))
		p95 = append(p95, percentile(lat, 95))
		cpuPerReq = append(cpuPerReq, float64(cpu1-cpu0)*1000/ticksPerSecond/float64(len(lat)))
	}
	host1 := readHost()
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return outcome{}, err
	}
	srv.stop()

	v := checkAll(reqs, resps, want)
	fmt.Printf("noise: steal=%.2f%% load1=%.2f->%.2f spin_ms=%.1f->%.1f window=%.3fs\n",
		100*stealShare(host0, host1), host0.load1, host1.load1, host0.spinMs, host1.spinMs, wall.Seconds())
	fmt.Printf("segments: rps=%.5g p50_ms=%.4g p95_ms=%.4g cpu_ms=%.4g\n", rps, p50, p95, cpuPerReq)
	return outcome{Verdict: v, Metrics: []metric{
		{"setup_s", percentile(setups, 50), "s"},
		{"throughput_rps", percentile(rps, 50), "req/s"},
		{"latency_p50_ms", percentile(p50, 50), "ms"},
		{"latency_p95_ms", percentile(p95, 50), "ms"},
		{"server_cpu_ms_per_req", percentile(cpuPerReq, 50), "ms"},
		{"peak_rss_mb", rss, "MiB"},
	}}, nil
}

// numSegments is how many consecutive segments a window is cut into;
// at --seconds 20 each holds at least 200 requests, so its p95 leaves
// ten samples beyond it.
const numSegments = 5

// segments cuts [0,n) into k consecutive near-equal [lo,hi) ranges.
func segments(n, k int) [][2]int {
	var out [][2]int
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

func sentLatenciesMs(resps []response) []float64 {
	var out []float64
	for _, r := range resps {
		if r.Sent {
			out = append(out, float64(r.Latency)/float64(time.Millisecond))
		}
	}
	return out
}

// traced is one per-layer run: snapshot restores, the in-process
// ladder over the first LadderLen requests, and the whole list over
// HTTP, segment by segment, alternately against a GODEBUG=gctrace=1
// server and an untraced one, whose latencies give the tracing
// overhead.
func (b *bench) traced(w Workload, seed uint64) (outcome, error) {
	ctx := context.Background()
	reqs, want, err := b.listAndOracle(w, seed)
	if err != nil {
		return outcome{}, err
	}
	releaseMemory()
	var restores []float64
	var engines map[string]*core.Engine
	for k := 0; k < 3; k++ {
		var d time.Duration
		if engines, d, err = restoreIndexed(b.snapDir); err != nil {
			return outcome{}, err
		}
		restores = append(restores, float64(d)/float64(time.Millisecond))
	}

	ladder := reqs[:min(len(reqs), w.LadderLen)]
	tr := newTracer()
	coreP50, err := coreRung(ctx, tr, engines, ladder, probeRequests(w, seed))
	if err != nil {
		return outcome{}, err
	}
	doSelf, err := servingRung(ctx, tr, engines, ladder)
	if err != nil {
		return outcome{}, err
	}
	apiServingSelf, respKB, err := apiRung(tr, engines, ladder)
	if err != nil {
		return outcome{}, err
	}
	apiSelf := make([]float64, len(ladder))
	for i := range apiSelf {
		apiSelf[i] = float64(apiServingSelf[i]-doSelf[i]) / float64(time.Microsecond)
	}
	engines = nil
	releaseMemory()

	gc, err := startServer(b.serverBin, b.snapDir, true)
	if err != nil {
		return outcome{}, err
	}
	defer gc.stop()
	plain, err := startServer(b.serverBin, b.snapDir, false)
	if err != nil {
		return outcome{}, err
	}
	defer plain.stop()
	before, err := gc.metrics()
	if err != nil {
		return outcome{}, err
	}
	from := time.Now()
	stopAt := from.Add(2 * maxWindow)
	resps := make([]response, len(reqs))
	plainResps := make([]response, len(reqs))
	var tracedP50, plainP50 []float64
	for _, seg := range segments(len(reqs), numSegments) {
		part, _ := replay(gc.base, reqs[seg[0]:seg[1]], w.Conns, stopAt)
		copy(resps[seg[0]:], part)
		tracedP50 = append(tracedP50, percentile(sentLatenciesMs(part), 50))
		part, _ = replay(plain.base, reqs[seg[0]:seg[1]], w.Conns, stopAt)
		copy(plainResps[seg[0]:], part)
		plainP50 = append(plainP50, percentile(sentLatenciesMs(part), 50))
	}
	to := time.Now()
	after, err := gc.metrics()
	if err != nil {
		return outcome{}, err
	}
	gc.stop()
	plain.stop()
	gcCycles, heapLive := gc.log.gcStats(from, to)

	var clientMs float64
	for i := range resps {
		if r := &resps[i]; r.Sent {
			tr.add("http.request", i, -1, r.Start, r.Start.Add(r.Latency))
			clientMs += float64(r.Latency) / float64(time.Millisecond)
		}
	}
	v := checkAll(reqs, resps, want)
	v2 := checkAll(reqs, plainResps, want)
	v.Sent += v2.Sent
	v.Failed += v2.Failed
	v.OracleChecked += v2.OracleChecked
	v.OracleMismatch += v2.OracleMismatch
	if v.FirstError == "" {
		v.FirstError = v2.FirstError
	}
	if err := tr.write(filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, seed))); err != nil {
		return outcome{}, err
	}

	sent := float64(max(v.Sent-v2.Sent, 1))
	hits := counterDelta(before, after, "serving.cache.hits")
	misses := counterDelta(before, after, "serving.cache.misses")
	var ms []metric
	for _, k := range kernelKinds {
		ms = append(ms, metric{k.Metric, coreP50[k.Metric], k.Unit})
	}
	ms = append(ms,
		metric{"core.index_build_s", b.indexBuild.Seconds(), "s"},
		metric{"snapshot.restore_ms", percentile(restores, 50), "ms"},
		metric{"serving.do_self_us", usP50(doSelf), "us"},
		metric{"serving.cache_hit_ratio", hits / max(hits+misses, 1), "ratio"},
		metric{"serving.cache_evictions", counterDelta(before, after, "serving.cache.evictions"), "count"},
		metric{"serving.coalesced_share", counterDelta(before, after, "serving.coalesce.followers") /
			max(counterDelta(before, after, "serving.requests"), 1), "ratio"},
		metric{"serving.rejected", counterDelta(before, after, "serving.overload.rejected"), "count"},
		metric{"api.self_us", percentile(apiSelf, 50), "us"},
		metric{"api.response_kb", respKB, "KiB"},
		// Mean client latency minus mean handler time, both over the
		// same requests of the traced server's window.
		metric{"http.self_us", 1000 * (clientMs - (after.handlerMs() - before.handlerMs())) / sent, "us"},
		metric{"http.latency_p99_ms", percentile(sentLatenciesMs(resps), 99), "ms"},
		metric{"runtime.gc_cycles", float64(gcCycles), "count"},
		metric{"runtime.heap_live_mb", heapLive, "MiB"},
		metric{"trace.overhead_pct", 100 * (percentile(tracedP50, 50)/percentile(plainP50, 50) - 1), "%"},
	)
	return outcome{Verdict: v, Metrics: ms}, nil
}

// steady runs each selected workload k times untraced, with seeds
// seed..seed+k-1, and prints every end-to-end metric's median,
// quartiles, range and spread (q3-q1)/median beside its bound.
func (b *bench) steady(name string, seed uint64, k int, benchJSON string) error {
	ws := workloads
	if name != "" && name != "all" {
		w, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		ws = []Workload{w}
	}
	bounds := readBounds(benchJSON)
	type row struct {
		Median, Q1, Q3, Min, Max, Spread, Bound float64
	}
	summary := map[string]map[string]row{}
	for _, w := range ws {
		vals := map[string][]float64{}
		var names []metric
		for i := 0; i < k; i++ {
			out, err := b.untraced(w, seed+uint64(i))
			if err != nil {
				return err
			}
			printOutcome(w.Name, seed+uint64(i), out)
			for _, m := range out.Metrics {
				if i == 0 {
					names = append(names, m)
				}
				vals[m.Name] = append(vals[m.Name], m.Value)
			}
		}
		fmt.Printf("steadiness of %s over %d seeds (spread = (q3-q1)/median):\n", w.Name, k)
		summary[w.Name] = map[string]row{}
		for _, m := range names {
			xs := vals[m.Name]
			q1, q3 := quartiles(xs)
			r := row{Median: percentile(xs, 50), Q1: q1, Q3: q3,
				Min: percentile(xs, 0), Max: percentile(xs, 100), Bound: bounds[m.Name]}
			r.Spread = (q3 - q1) / r.Median
			verdict := "no bound"
			switch {
			case r.Bound == 0:
			case r.Spread <= r.Bound/3:
				verdict = "steady (< bound/3)"
			case r.Spread <= r.Bound:
				verdict = "within bound"
			default:
				verdict = "OVER BOUND"
			}
			fmt.Printf("  %-22s %-6s median=%-10.5g q1=%-10.5g q3=%-10.5g min=%-10.5g max=%-10.5g spread=%6.2f%% bound=%4.0f%% %s\n",
				m.Name, m.Unit, r.Median, r.Q1, r.Q3, r.Min, r.Max, 100*r.Spread, 100*r.Bound, verdict)
			summary[w.Name][m.Name] = r
		}
	}
	line, err := json.Marshal(map[string]any{"steady": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// readBounds returns the end-to-end bounds BENCHMARK.json declares, or
// none when the file is missing.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

func printOutcome(name string, seed uint64, out outcome) {
	v := out.Verdict
	fmt.Printf("workload=%s seed=%d sent=%d failed=%d oracle_checked=%d oracle_mismatch=%d\n",
		name, seed, v.Sent, v.Failed, v.OracleChecked, v.OracleMismatch)
	if v.FirstError != "" {
		fmt.Printf("first failure: %s\n", v.FirstError)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range out.Metrics {
		fmt.Printf("  %-24s %14.6g %s\n", m.Name, m.Value, m.Unit)
		ms[m.Name] = val{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{v.Failed == 0 && v.OracleMismatch == 0 && v.Sent > 0, max(v.Sent, 1), v.Failed, ms})
	fmt.Println(string(line))
}
