// Command celia-bench measures the frontier-index speedup on the
// paper's configuration space and emits a machine-readable summary,
// so CI can archive per-commit numbers. A few ratios, each measured
// within one run, are hard gates:
//   - loading a persisted index must beat rebuilding it by at least
//     20x (the startup path);
//   - the per-hour indexed Analyze must beat the per-hour scan by at
//     least 20x (the billing-aware routing: the paper's own billing
//     mode used to fall back to the ~350ms scan);
//   - the indexed Analyze must beat the scan by at least 300x and the
//     indexed MinCost by at least 2000x (the block summaries that make
//     the census and the min-cost tie pass sublinear in the spans; a
//     regression to the per-span loops lands near 100x).
//
// Index queries take microseconds, so their rows run at least
// cheapOps iterations whatever -benchtime says: one cold call must
// not decide a gate.
//
// Example:
//
//	celia-bench -out BENCH_core.json -benchtime 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/snapshot"
	"repro/internal/units"
	"repro/internal/workload"
)

// cheapOps is the least iteration count of an index-query row.
const cheapOps = 200

type benchRow struct {
	Name    string  `json:"name"`
	NsPerOp int64   `json:"ns_per_op"`
	Ops     int     `json:"ops"`
	Speedup float64 `json:"speedup,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-bench: ")
	out := flag.String("out", "BENCH_core.json", "output path ('-' for stdout)")
	iters := flag.Int("benchtime", 1, "iterations per benchmark")
	flag.Parse()
	if *iters < 1 {
		log.Fatal("-benchtime must be >= 1")
	}

	p := workload.Params{N: 65536, A: 8000}
	cons := core.Constraints{Deadline: units.FromHours(24), Budget: 350}
	// The scan rungs need a scan-only engine: engines answer from the
	// frontier index by default, which would leave the gates comparing
	// the index against itself.
	scanEng := core.NewPaperEngine(galaxy.App{})
	scanEng.SetUseIndex(false)
	idxEng := core.NewPaperEngine(galaxy.App{})

	runOps := func(name string, ops int, fn func() error) benchRow {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		elapsed := time.Since(start)
		return benchRow{
			Name:    name,
			NsPerOp: elapsed.Nanoseconds() / int64(ops),
			Ops:     ops,
		}
	}
	run := func(name string, fn func() error) benchRow { return runOps(name, *iters, fn) }
	runCheap := func(name string, fn func() error) benchRow { return runOps(name, max(*iters, cheapOps), fn) }

	buildStart := time.Now()
	if !idxEng.IndexActive() {
		log.Fatal("frontier index did not build")
	}
	buildRow := benchRow{
		Name:    "FrontierIndexBuildPaper",
		NsPerOp: time.Since(buildStart).Nanoseconds(),
		Ops:     1,
	}

	rows := []benchRow{
		run("AnalyzeScanPaper", func() error {
			_, err := scanEng.Analyze(p, cons, core.Options{})
			return err
		}),
		runCheap("AnalyzeIndexedPaper", func() error {
			_, err := idxEng.Analyze(p, cons, core.Options{})
			return err
		}),
		run("MinCostScanPaper", func() error {
			_, ok, err := scanEng.MinCostExhaustive(p, cons.Deadline)
			if err == nil && !ok {
				return fmt.Errorf("infeasible")
			}
			return err
		}),
		runCheap("MinCostIndexedPaper", func() error {
			_, ok, err := idxEng.MinCostForDeadline(p, cons.Deadline)
			if err == nil && !ok {
				return fmt.Errorf("infeasible")
			}
			return err
		}),
	}

	// Per-hour rungs: the same census under the paper-era billing
	// policy, routed through the same already-built index. Flipping the
	// billing is free — the staircase is billing-independent; only the
	// query-time cost function changes.
	scanEng.SetBilling(model.PerHour)
	idxEng.SetBilling(model.PerHour)
	rows = append(rows,
		run("AnalyzePerHourScanPaper", func() error {
			_, err := scanEng.Analyze(p, cons, core.Options{})
			return err
		}),
		runCheap("AnalyzePerHourIndexedPaper", func() error {
			if !idxEng.IndexActive() {
				return fmt.Errorf("index inactive under per-hour billing")
			}
			_, err := idxEng.Analyze(p, cons, core.Options{})
			return err
		}),
	)
	scanEng.SetBilling(model.PerSecond)
	idxEng.SetBilling(model.PerSecond)

	for i := 1; i < len(rows); i += 2 {
		if rows[i].NsPerOp > 0 {
			rows[i].Speedup = float64(rows[i-1].NsPerOp) / float64(rows[i].NsPerOp)
		}
	}
	perHourIdx := rows[len(rows)-1]
	if perHourIdx.Name != "AnalyzePerHourIndexedPaper" {
		log.Fatalf("row order broken: %s where AnalyzePerHourIndexedPaper expected", perHourIdx.Name)
	}
	if perHourIdx.Speedup < 20 {
		log.Fatalf("per-hour indexed Analyze is only %.1fx faster than the scan; need >= 20x (the billing-aware index is the fix for the per-hour slow path)",
			perHourIdx.Speedup)
	}
	for _, g := range []struct {
		row  int
		name string
		min  float64
	}{{1, "AnalyzeIndexedPaper", 300}, {3, "MinCostIndexedPaper", 2000}} {
		if rows[g.row].Name != g.name {
			log.Fatalf("row order broken: %s where %s expected", rows[g.row].Name, g.name)
		}
		if rows[g.row].Speedup < g.min {
			log.Fatalf("%s is only %.0fx faster than the scan; need >= %.0fx (the block summaries keep the census and the min-cost tie pass off the per-span loop)",
				g.name, rows[g.row].Speedup, g.min)
		}
	}
	rows = append(rows, runCheap("MaxAccuracyIndexedPaper", func() error {
		_, _, ok, err := idxEng.MaxAccuracy(p.N, cons, 1e-3)
		if err == nil && !ok {
			return fmt.Errorf("infeasible")
		}
		return err
	}))

	// The horizon-solver rung: a 1,000-step diurnal trace solved against
	// the already-built staircase. Its speedup is measured against the
	// naive alternative — one exhaustive min-cost scan per step.
	tr := demand.GoldenDiurnal()
	solveRow := run("ScheduleSolveDiurnal1k", func() error {
		s, err := schedule.Solve(idxEng, tr, schedule.PolicyFor(idxEng))
		if err == nil && s.Misses != 0 {
			return fmt.Errorf("%d missed steps on the golden trace", s.Misses)
		}
		return err
	})
	if scanNs := rows[2].NsPerOp; solveRow.NsPerOp > 0 && rows[2].Name == "MinCostScanPaper" {
		solveRow.Speedup = float64(int64(tr.Steps())*scanNs) / float64(solveRow.NsPerOp)
	}
	rows = append(rows, solveRow, buildRow)

	// Snapshot rungs: persist the paper index and restore it into a cold
	// engine. Load speedup is measured against the in-process build it
	// replaces at startup; the ladder only pays off if restoring is
	// decisively cheaper than rebuilding, so a load slower than 1/20 of
	// the build is a hard failure, not a data point.
	snapTmp, err := os.MkdirTemp("", "celia-bench-snap-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(snapTmp)
	snapPath := filepath.Join(snapTmp, "galaxy.frontier.snap")
	saveRow := run("SnapshotSavePaper", func() error {
		return snapshot.Save(snapPath, idxEng)
	})
	coldEng := core.NewPaperEngine(galaxy.App{})
	// The restore is cheap enough to repeat, so take the best of five:
	// the gate compares an inherently noisy one-shot wall-clock pair,
	// and a single scheduler hiccup on a loaded CI box must not read as
	// a regression in the startup path.
	loadRow := benchRow{Name: "SnapshotLoadPaper", Ops: 5}
	for i := 0; i < loadRow.Ops; i++ {
		start := time.Now()
		if err := snapshot.Restore(snapPath, coldEng); err != nil {
			log.Fatalf("SnapshotLoadPaper: %v", err)
		}
		if ns := time.Since(start).Nanoseconds(); i == 0 || ns < loadRow.NsPerOp {
			loadRow.NsPerOp = ns
		}
	}
	if loadRow.NsPerOp > 0 {
		loadRow.Speedup = float64(buildRow.NsPerOp) / float64(loadRow.NsPerOp)
	}
	if loadRow.Speedup < 20 {
		log.Fatalf("snapshot load is only %.1fx faster than the %.2fs build; need >= 20x",
			loadRow.Speedup, time.Duration(buildRow.NsPerOp).Seconds())
	}
	rows = append(rows, saveRow, loadRow)

	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rows))
}
