// The sweep engine's library facade. A Request — which figures to run,
// under which Options — goes in; a Report — rendered tables plus the
// job-level SweepStatus — comes out. cmd/zivsim and cmd/zivsimd are both
// thin front ends over RunSweep: the CLI formats the Report for a
// terminal and maps it to exit codes, the server serializes it as JSON
// and keeps it addressable under the request's content-derived identity
// (IdentityKey, the same SHA-256 construction as the disk-cache and
// checkpoint keys), so identical submissions are deduplicated and served
// from whatever has already been computed.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Request describes one sweep submission: the experiments to run and the
// options to run them under. The zero Figs slice (or the single entry
// "all") selects every registered experiment.
type Request struct {
	// Figs lists experiment IDs ("fig1", "fig8", ...). Empty or
	// containing "all" selects every experiment. Duplicates collapse and
	// the run order is always ID order, so two spellings of the same
	// selection share an IdentityKey.
	Figs []string `json:"figs"`
	// Options is the experiment option set. Fields that cannot affect
	// results (Parallelism, CacheDir, telemetry plumbing, ...) are
	// normalized out of the identity, exactly as the disk cache does.
	Options Options `json:"options"`
	// OnFigure, when non-nil, is called after each experiment finishes,
	// in run order, before the next one starts. Front ends use it to
	// stream output (the CLI prints tables as they complete, the server
	// appends figure events). Never called for a figure cut short by a
	// drain.
	OnFigure func(FigureResult) `json:"-"`
}

// FigureResult is one experiment's outcome within a sweep.
type FigureResult struct {
	// ID is the experiment identifier ("fig8").
	ID string `json:"id"`
	// Title is the experiment's human-readable title.
	Title string `json:"title"`
	// Table holds the rendered figure; nil when the experiment panicked
	// outside the per-job recovery (Err carries the panic).
	Table *Table `json:"table,omitempty"`
	// Err is the recovered panic message for an experiment that aborted
	// outside the job runner; empty on success.
	Err string `json:"err,omitempty"`
}

// Report is everything one sweep produced.
type Report struct {
	// Figures holds one entry per completed (or panicked) experiment, in
	// run order. A sweep cut short by a drain omits the interrupted
	// figure: its table would hold placeholder zeros for skipped jobs.
	Figures []FigureResult `json:"figures"`
	// Status is the job-level outcome summary (completed counts, cache
	// and checkpoint hits, failed and skipped jobs).
	Status SweepStatus `json:"status"`
	// Drained reports that a graceful drain interrupted the sweep before
	// every experiment finished; completed work is journaled when a
	// checkpoint is configured, so an identical resubmission resumes.
	Drained bool `json:"drained"`
}

// Panics counts the experiments that aborted outside the per-job
// recovery (table assembly bugs and the like).
func (r *Report) Panics() int {
	n := 0
	for _, f := range r.Figures {
		if f.Err != "" {
			n++
		}
	}
	return n
}

// ResolveFigs canonicalizes an experiment selection: "all" or an empty
// selection expands to every registered experiment, duplicates collapse,
// and the result is sorted by ID (the engine's run order). Unknown IDs
// are an error.
func ResolveFigs(figs []string) ([]Experiment, error) {
	all := false
	if len(figs) == 0 {
		all = true
	}
	for _, f := range figs {
		if f == "all" {
			all = true
		}
	}
	if all {
		return Experiments(), nil
	}
	seen := map[string]bool{}
	var out []Experiment
	for _, f := range figs {
		if seen[f] {
			continue
		}
		seen[f] = true
		e, ok := ByID(f)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", f)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// requestIdentity is the serialized identity of one sweep request. It
// deliberately reuses cacheVersion and the normalized Options — the same
// ingredients as the per-job disk-cache key — so a job identity changes
// exactly when the results it addresses would.
type requestIdentity struct {
	Version string
	Figs    []string
	Options Options // normalized: result-neutral fields zeroed
}

// IdentityKey returns the request's content-addressed identity: the
// SHA-256 (hex) of the canonical figure selection plus the normalized,
// result-affecting option set, stamped with the simulator's cache
// version. Two requests share a key exactly when they would produce
// byte-identical tables, which is what makes the key usable as a
// deduplicating job ID.
func (q Request) IdentityKey() (string, error) {
	exps, err := ResolveFigs(q.Figs)
	if err != nil {
		return "", err
	}
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	data, err := json.Marshal(requestIdentity{
		Version: cacheVersion,
		Figs:    ids,
		Options: q.Options.normalized(),
	})
	if err != nil {
		return "", fmt.Errorf("harness: identity marshal: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// sweepLock serializes the RunSweep calls that share a normalized
// Options value.
type sweepLock struct {
	mu sync.Mutex
	// refs counts the sweeps holding or waiting on mu; it is guarded by
	// sweepLocksMu, not mu, and the last sweep out deletes the entry.
	refs int
}

var (
	sweepLocksMu sync.Mutex
	// sweepLocks holds one entry per option set that has a sweep in
	// flight or waiting. Same-options sweeps run back to back so the
	// later one adopts the earlier one's simulations from the disk cache
	// (when configured) instead of recomputing them alongside it, and so
	// at most one of them appends to a given checkpoint journal.
	//
	//ziv:guards(sweepLocksMu)
	sweepLocks = map[Options]*sweepLock{}
)

// lockSweep takes the serialization lock for an option set and returns
// its release, which drops the entry once no sweep holds or awaits it.
func lockSweep(opt Options) (unlock func()) {
	key := opt.normalized()
	sweepLocksMu.Lock()
	lk := sweepLocks[key]
	if lk == nil {
		lk = &sweepLock{}
		sweepLocks[key] = lk
	}
	lk.refs++
	sweepLocksMu.Unlock()
	lk.mu.Lock()
	return func() {
		lk.mu.Unlock()
		sweepLocksMu.Lock()
		defer sweepLocksMu.Unlock()
		lk.refs--
		if lk.refs == 0 {
			delete(sweepLocks, key)
		}
	}
}

// RunSweep executes a sweep request: every selected experiment in ID
// order, each behind a panic barrier (an experiment that dies outside
// the per-job recovery is reported in its FigureResult and the rest
// still run), stopping early when the request's Drain is triggered.
// The sweep owns its runner and checkpoint journal and releases both
// on return; its Status counts only its own matrix. Concurrent sweeps
// under the same normalized Options serialize, and the later one
// adopts the earlier one's simulations through the disk cache when
// CacheDir is set (it recomputes them otherwise). The returned error is
// reserved for invalid requests (unknown figure IDs); execution-level
// failures land in the Report.
func RunSweep(q Request) (*Report, error) {
	exps, err := ResolveFigs(q.Figs)
	if err != nil {
		return nil, err
	}
	unlock := lockSweep(q.Options)
	defer unlock()
	r := makeRunner(q.Options)
	defer r.release()
	opt := q.Options
	opt.sweep = r
	rep := &Report{}
	for _, e := range exps {
		fr := runFigure(e, opt)
		if d := q.Options.Drain; d != nil && d.Requested() {
			// The interrupted figure's table may hold placeholder zeros
			// for skipped jobs; don't report partial figures as results.
			rep.Drained = true
			break
		}
		rep.Figures = append(rep.Figures, fr)
		if q.OnFigure != nil {
			q.OnFigure(fr)
		}
	}
	rep.Status = r.status()
	return rep, nil
}

// runFigure runs one experiment behind a panic barrier: a failure
// outside the per-job recovery (e.g. in table assembly) becomes the
// FigureResult's Err instead of killing the sweep.
func runFigure(e Experiment, opt Options) (fr FigureResult) {
	fr = FigureResult{ID: e.ID, Title: e.Title}
	defer func() {
		if p := recover(); p != nil {
			fr.Table = nil
			fr.Err = fmt.Sprint(p)
		}
	}()
	fr.Table = e.Run(opt)
	return fr
}
