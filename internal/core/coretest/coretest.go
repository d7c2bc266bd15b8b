// Package coretest builds paper engines for tests at the least cost.
// Engines answer from the frontier index by default, and building it
// for the paper's 10,077,695-configuration space takes seconds (tens
// under the race detector), while every engine with the same
// core.IndexFingerprint derives the identical index. Share builds it
// once per fingerprint per process and installs it everywhere else;
// ScanEngine skips it for tests that ask only a question or two.
package coretest

import (
	"sync"

	"repro/internal/core"
	"repro/internal/workload"
)

// indexes maps an engine fingerprint to the once-only build of its
// frontier index; concurrent first callers wait for one build.
var indexes sync.Map // string → func() *core.FrontierIndex

// Share installs into eng the frontier index of an earlier engine with
// the same fingerprint, building it from eng the first time, and
// returns eng. Installing leaves routing alone: a scan-only engine
// stays scan-only. An engine whose catalog does not compress under the
// pair cap is returned unchanged.
func Share(eng *core.Engine) *core.Engine {
	build, _ := indexes.LoadOrStore(eng.IndexFingerprint(), sync.OnceValue(func() *core.FrontierIndex {
		x, _ := eng.Frontier()
		return x
	}))
	if x := build.(func() *core.FrontierIndex)(); x != nil && !eng.FrontierBuilt() {
		if err := eng.InstallIndex(x); err != nil {
			panic("coretest: " + err.Error()) // equal fingerprints imply equal spaces
		}
	}
	return eng
}

// PaperEngine is core.NewPaperEngine(app) with its shared frontier
// index installed. Each call returns a fresh engine, so callers may
// change its billing or routing without affecting other tests.
func PaperEngine(app workload.App) *core.Engine {
	return Share(core.NewPaperEngine(app))
}

// ScanEngine is core.NewPaperEngine(app) made scan-only, for tests that
// ask a paper engine only a few questions: each exhaustive scan returns
// the index's answer bit for bit and costs a fraction of the index
// build (~0.3 s against 2 s; ~1.4 s against 9 s under the race
// detector).
func ScanEngine(app workload.App) *core.Engine {
	eng := core.NewPaperEngine(app)
	eng.SetUseIndex(false)
	return eng
}
