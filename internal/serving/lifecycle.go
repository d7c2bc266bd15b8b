// The resilient index lifecycle: snapshot restore at startup,
// zero-downtime engine swap on catalog changes, and panic-isolated
// background rebuilds. The degradation ladder (DESIGN.md §11) is
// index → exhaustive scan (declared "degraded") → 503: a missing,
// corrupt, or stale snapshot never blocks serving, it only changes how
// honest the process is about its latency until the rebuild lands.
package serving

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// LoadSnapshots restores each mounted engine's frontier index from
// Config.SnapshotDir. Per app the outcome is one of:
//
//   - restored: the artifact decoded, matched the engine's catalog
//     fingerprint, and was installed — the app starts "built" and never
//     pays the scan-speed build;
//   - bypassed: the engine does not use the index (scan-only or an
//     uncertified billing policy); no artifact is touched;
//   - degraded: the artifact was missing, unreadable, corrupt, or
//     stale. The app serves from the exhaustive scan immediately and a
//     background rebuild (panic-isolated) restores the index, then
//     re-saves the snapshot.
//
// The returned map holds an entry per app that could not be restored
// (for startup logs); nil means every index-eligible app restored. A
// Frontdoor with no SnapshotDir leaves every app on the lazy in-process
// build and returns nil.
func (f *Frontdoor) LoadSnapshots() map[string]error {
	if f.cfg.SnapshotDir == "" {
		return nil
	}
	engines := *f.engines.Load()
	apps := make([]string, 0, len(engines))
	for app := range engines {
		apps = append(apps, app)
	}
	sort.Strings(apps)

	problems := make(map[string]error)
	for _, app := range apps {
		eng := engines[app]
		if eng.IndexBypassReason() != "" {
			continue
		}
		path := snapshot.PathFor(f.cfg.SnapshotDir, app)
		err := f.restoreOne(path, eng)
		if err == nil {
			f.snapLoaded.Inc()
			f.setStatus(app, IndexStatus{State: IndexBuilt})
			continue
		}
		f.snapRejected.Inc()
		problems[app] = err
		reason := "snapshot " + path + ": " + err.Error() + "; serving from exhaustive scan until rebuild completes"
		if errors.Is(err, fs.ErrNotExist) {
			reason = "snapshot missing; serving from exhaustive scan until rebuild completes"
		}
		f.setStatus(app, IndexStatus{State: IndexDegraded, Reason: reason})
		f.spawnRebuild(app, eng)
	}
	f.refreshIndexGauges()
	if len(problems) == 0 {
		return nil
	}
	return problems
}

// restoreOne loads one artifact through the configured ReadFile hook
// and installs it. Strictness lives in snapshot.Decode; anything it
// rejects leaves the engine untouched.
func (f *Frontdoor) restoreOne(path string, eng *core.Engine) error {
	blob, err := f.cfg.ReadFile(path)
	if err != nil {
		return err
	}
	x, err := snapshot.Decode(blob, eng.IndexFingerprint())
	if err != nil {
		return err
	}
	return eng.InstallIndex(x)
}

// SwapEngine replaces (or mounts) the engine serving app under live
// traffic — the zero-downtime catalog/price update path. Queries
// observe the swap atomically: the engine map is copy-on-write behind
// an atomic pointer, so in-flight requests finish against the engine
// they started with while new requests see the replacement. The result
// cache is purged (every cached body priced against the old catalog is
// wrong) with a generation bump so an in-flight leader compute on the
// old engine cannot re-insert stale bytes. The new engine's index
// builds in a panic-isolated background goroutine and is published by
// an atomic pointer store when done; until then the app serves from the
// scan in the declared "building" state.
func (f *Frontdoor) SwapEngine(app string, eng *core.Engine) {
	st := initialStatus(eng)
	if st.State == IndexPending {
		st = IndexStatus{State: IndexBuilding, Reason: "catalog swapped; index rebuild in progress"}
	}

	f.mu.Lock()
	old := *f.engines.Load()
	next := make(map[string]*core.Engine, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[app] = eng
	f.engines.Store(&next)
	f.status[app] = st
	f.mu.Unlock()
	f.refreshDegradedGauge()

	if f.cache != nil {
		f.cache.purge()
	}
	f.refreshIndexGauges()
	if st.State == IndexBuilding {
		f.spawnRebuild(app, eng)
	}
}

// spawnRebuild starts a tracked background rebuild for app's engine;
// Frontdoor.Wait joins it.
func (f *Frontdoor) spawnRebuild(app string, eng *core.Engine) {
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		f.runRebuild(app, eng)
	}()
}

// runRebuild executes one background rebuild end-to-end: build (panic
// contained), publish status, refresh gauges, re-save the snapshot. A
// rebuild whose engine was swapped out while it ran discards its result
// silently — the newer swap owns the app's state.
func (f *Frontdoor) runRebuild(app string, eng *core.Engine) {
	_, err := f.guardedRebuild(eng)
	if (*f.engines.Load())[app] != eng {
		return
	}
	if err != nil {
		f.setStatus(app, IndexStatus{
			State:  IndexDegraded,
			Reason: "index rebuild failed: " + err.Error() + "; serving from exhaustive scan",
		})
		return
	}
	f.setStatus(app, IndexStatus{State: IndexBuilt})
	f.refreshIndexGauges()
	if f.cfg.SnapshotDir != "" {
		if err := snapshot.Save(snapshot.PathFor(f.cfg.SnapshotDir, app), eng); err == nil {
			f.snapSaved.Inc()
		}
	}
}

// guardedRebuild contains a panicking rebuild hook. core's own
// RebuildIndex already recovers build panics internally; this guard
// covers injected hooks and keeps the background goroutine from ever
// taking the process down.
func (f *Frontdoor) guardedRebuild(eng *core.Engine) (st core.IndexStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.panics.Inc()
			err = fmt.Errorf("rebuild panic: %v", r)
		}
	}()
	return f.cfg.Rebuild(eng)
}

// refreshDegradedGauge recomputes the degraded-app count outside any
// particular transition (used after bulk status writes).
func (f *Frontdoor) refreshDegradedGauge() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var degraded int64
	for _, s := range f.status {
		if s.State == IndexDegraded {
			degraded++
		}
	}
	f.idxDegraded.Set(degraded)
}
