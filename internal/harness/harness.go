// Package harness defines one experiment per figure of the paper's
// evaluation (Figs. 1-4 motivation, Figs. 8-19 results) and the machinery to
// run them: per-(configuration, mix) simulations with caching, a worker pool,
// and tabular output matching the rows/series the paper reports.
package harness

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/dram"
	"zivsim/internal/energy"
	"zivsim/internal/hierarchy"
	"zivsim/internal/metrics"
	"zivsim/internal/obs"
	"zivsim/internal/telemetry"
	"zivsim/internal/trace"
	"zivsim/internal/workload"
)

// Options controls experiment scale. The defaults run every figure on a
// laptop in minutes; raise Mixes/Measure (and lower Scale) to approach the
// paper's full methodology.
type Options struct {
	// Scale divides every cache capacity (power of two; 1 = the paper's
	// full 8 MB-LLC machine). Capacity ratios — and therefore normalized
	// shapes — are scale-invariant.
	Scale int
	// Cores is the CMP size for multi-programmed experiments.
	Cores int
	// HeteroMixes sets how many heterogeneous mixes run (paper: 36).
	HeteroMixes int
	// HomoMixes sets how many homogeneous mixes run (paper: 36).
	HomoMixes int
	// Warmup is the per-core reference count simulated before measurement.
	Warmup int
	// Measure is the per-core reference count of the measured segment.
	Measure int
	// TPCECores is the core count of the TPC-E scalability experiment
	// (paper: 128).
	TPCECores int
	// Seed makes everything deterministic.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// CacheDir, when non-empty, persists every simulation result to disk
	// (one JSON file per (options, config, mix) key) and reuses it across
	// processes. Neither CacheDir nor Parallelism affects simulation
	// results, so both are excluded from cache keys.
	CacheDir string
	// Obs, when non-nil, attaches the observability layer to every
	// simulation and writes one artifact set per job under Obs.OutDir.
	// Observability never changes simulation results (the golden tests pin
	// that), so it is excluded from cache keys — but artifact production
	// needs real runs, so obs runs bypass the disk-cache read path.
	Obs *ObsOptions `json:"-"`
	// Progress, when non-nil, receives live run progress. It reports in
	// the wall-clock domain and writes only to its configured sink
	// (stderr), never into results.
	Progress *Progress `json:"-"`
	// MaxAttempts bounds how many times a panicking job is attempted
	// before it is recorded as failed; 0 and 1 both mean a single attempt.
	// Retries are immediate re-executions of the same pure simulation —
	// no wall clock enters the decision path — so they only help against
	// faults injected per attempt (and real-world transients like memory
	// pressure), never against deterministic simulator bugs. Cannot affect
	// results, so it is excluded from cache keys.
	MaxAttempts int `json:"-"`
	// CheckpointFile, when non-empty, journals every completed job to an
	// append-only checkpoint (conventionally .zivcheckpoint) keyed exactly
	// like the disk cache, so an interrupted sweep can be resumed. See
	// checkpoint.go. Excluded from cache keys.
	CheckpointFile string `json:"-"`
	// Resume loads CheckpointFile before running and adopts every entry
	// whose key matches, so finished jobs are skipped. Like the disk
	// cache, checkpoint reads are bypassed when Obs is set (artifacts need
	// real runs). Excluded from cache keys.
	Resume bool `json:"-"`
	// FaultSpec injects deterministic faults for testing the recovery,
	// retry, checkpoint and drain machinery; see ParseFaultSpec for the
	// grammar. Empty injects nothing. Excluded from cache keys.
	FaultSpec string `json:"-"`
	// Drain, when non-nil, lets the caller request a graceful shutdown:
	// dispatching stops, in-flight jobs finish (or are abandoned once the
	// drain expires), and every undispatched job is marked skipped. The
	// CLI wires SIGINT/SIGTERM to it. Excluded from cache keys.
	Drain *Drain `json:"-"`
	// Telemetry, when non-nil, receives the sweep's job lifecycle:
	// metrics, per-job spans and the run ledger (see internal/telemetry).
	// Like Progress it lives in the wall-clock domain and writes only to
	// its own outputs, never into results — the telemetry invariance test
	// pins that — so it is excluded from cache keys.
	Telemetry *telemetry.Sink `json:"-"`

	// sweep, set only by RunSweep, is the runner that sweep owns: every
	// experiment of the sweep resolves to it instead of to the
	// process-wide memo, and RunSweep releases it on return.
	sweep *runner
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{
		Scale:       8,
		Cores:       8,
		HeteroMixes: 4,
		HomoMixes:   4,
		Warmup:      30_000,
		Measure:     120_000,
		TPCECores:   32,
		Seed:        20210614, // ISCA 2021
	}
}

// PaperOptions returns the paper-fidelity settings (slow: full-size machine,
// 36+36 mixes).
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = 1
	o.HeteroMixes = 36
	o.HomoMixes = 36
	o.Warmup = 100_000
	o.Measure = 500_000
	o.TPCECores = 128
	return o
}

// Result is everything one simulation produced.
type Result struct {
	Config hierarchy.Config    // the simulated machine configuration
	Cores  []metrics.CoreStats // per-core performance counters
	LLC    core.Stats          // shared last-level cache counters
	Dir    directory.Stats     // sparse-directory counters
	Mem    dram.Stats          // DRAM controller counters

	TotalInstr   uint64  // instructions retired, summed over cores
	RelocEPI     float64 // pJ/instruction spent on relocation + widened directory
	RelocSkew    float64 // max/mean relocation-target load across sets
	TotalL2Miss  uint64  // L2 misses, summed over cores
	TotalLLCMiss uint64  // LLC misses, summed over cores
	TotalIncl    uint64  // back-invalidation inclusion victims
	TotalDirIncl uint64  // directory-induced inclusion victims
}

// runOne simulates one (config, generators) pair. o, when non-nil, is
// attached as the machine's observability layer for the run.
func runOne(cfg hierarchy.Config, gens []trace.Generator, warmup, measure int, o *obs.Observer) Result {
	m := hierarchy.New(cfg, gens, warmup, measure)
	if o != nil {
		m.SetObserver(o)
	}
	m.Run()
	simulatedRefs.Add(uint64(len(gens)) * uint64(warmup+measure))
	cores := m.CoreStats()
	r := Result{
		Config: cfg,
		Cores:  cores,
		LLC:    m.LLC().Stats,
		Dir:    m.Directory().Stats,
		Mem:    m.Memory().Stats,
	}
	for _, cs := range cores {
		r.TotalInstr += cs.Instructions
		r.TotalL2Miss += cs.L2Misses
		r.TotalLLCMiss += cs.LLCMisses
		r.TotalIncl += cs.InclusionVictims
		r.TotalDirIncl += cs.DirInclusionVictims
	}
	r.RelocEPI = m.Meter().EventEPI(energy.Relocation, r.TotalInstr) +
		m.Meter().EventEPI(energy.DirWideExtra, r.TotalInstr)
	r.RelocSkew = m.LLC().RelocTargetSkew()
	return r
}

// job identifies one simulation in a figure's matrix.
type job struct {
	cfgLabel string
	cfg      hierarchy.Config
	mix      workload.Mix
}

// runner executes jobs with caching and bounded parallelism. RunSweep
// creates one runner per sweep and releases it (closing its checkpoint
// journal) when the sweep returns, so a long-lived front end such as
// zivsimd holds no harness state for the identities it has served; the
// experiments of one sweep share its runner, so those that overlap in
// their configuration matrices (e.g. Figs. 3/4, Figs. 8/9/10) reuse each
// other's simulations. Direct Experiment.Run callers instead share one
// runner per Options value for the process lifetime (the memo ResetMemo
// clears).
type runner struct {
	opt Options
	mu  sync.Mutex
	// results holds genuinely computed (or cache-/checkpoint-adopted)
	// Results. Failed and skipped jobs never enter it, so a later runAll
	// over the same matrix re-attempts them.
	//ziv:guards(mu)
	results map[string]Result
	// failed records jobs that exhausted their attempts, skipped the jobs
	// a drain prevented, and placeholders the zero-shaped Results that
	// keep table rendering total for both. get consults them in order.
	//ziv:guards(mu)
	failed map[string]FailedJob
	//ziv:guards(mu)
	skipped map[string]bool
	//ziv:guards(mu)
	placeholders map[string]Result
	// completedRuns counts real simulations finished by this runner
	// (cache and checkpoint hits excluded); the drain-after fault keys
	// off it.
	//ziv:guards(mu)
	completedRuns int
	//ziv:guards(mu)
	cacheHits int
	//ziv:guards(mu)
	ckptHits int
	// manifest accumulates per-job observability outcomes for the sweep
	// manifest (obs.go); keyed by artifact stem.
	//ziv:guards(mu)
	manifest map[string]manifestRecord

	ckptOnce sync.Once
	ckpt     *checkpoint
}

var (
	runnersMu sync.Mutex
	// runners memoizes one runner per normalized Options value for
	// direct Experiment.Run callers; RunSweep's runners never enter it.
	//
	//ziv:guards(runnersMu)
	runners = map[Options]*runner{}
)

// newRunner resolves the runner an experiment runs its matrix on: the
// sweep's own runner under RunSweep, else the memoized one for the
// options.
func newRunner(opt Options) *runner {
	if opt.sweep != nil {
		return opt.sweep
	}
	key := opt.normalized()
	runnersMu.Lock()
	defer runnersMu.Unlock()
	if r := runners[key]; r != nil {
		r.opt = opt
		return r
	}
	r := makeRunner(opt)
	runners[key] = r
	return r
}

// makeRunner builds an empty runner for an option set.
func makeRunner(opt Options) *runner {
	return &runner{
		opt:          opt,
		results:      make(map[string]Result),
		failed:       make(map[string]FailedJob),
		skipped:      make(map[string]bool),
		placeholders: make(map[string]Result),
		manifest:     make(map[string]manifestRecord),
	}
}

// normalized zeroes the Options fields that do not affect simulation
// results; the remainder keys both the in-process memo and the disk cache.
func (o Options) normalized() Options {
	o.Parallelism = 0
	o.CacheDir = ""
	o.Obs = nil
	o.Progress = nil
	o.MaxAttempts = 0
	o.CheckpointFile = ""
	o.Resume = false
	o.FaultSpec = ""
	o.Drain = nil
	o.Telemetry = nil
	o.sweep = nil
	return o
}

// ResetMemo drops every in-process cached result. Benchmarks use it to make
// each iteration pay the full simulation cost instead of a memo hit.
func ResetMemo() {
	runnersMu.Lock()
	defer runnersMu.Unlock()
	for _, r := range runners {
		r.release()
	}
	runners = map[Options]*runner{}
}

// LiveState counts the harness state that outlives a call: runners
// memoized for direct Experiment.Run callers, and sweep-lock entries
// (one per option set with a RunSweep holding or waiting on it). A
// server that only calls RunSweep reads (0, 0) whenever it is idle; the
// server's boundedness test pins that.
func LiveState() (memoRunners, locks int) {
	runnersMu.Lock()
	memoRunners = len(runners)
	runnersMu.Unlock()
	sweepLocksMu.Lock()
	defer sweepLocksMu.Unlock()
	return memoRunners, len(sweepLocks)
}

// simulatedRefs counts memory references simulated by runOne across the
// process lifetime (warmup + measurement, all cores). Benchmarks divide it
// by wall time for a work-normalized refs/sec metric.
var simulatedRefs atomic.Uint64

// SimulatedRefs returns the total memory references simulated so far.
func SimulatedRefs() uint64 { return simulatedRefs.Load() }

func (r *runner) key(cfgLabel, mixName string) string { return cfgLabel + "|" + mixName }

// params derives the workload scaling parameters for a machine config.
func paramsFor(cfg hierarchy.Config, baseL2 int) workload.Params {
	return workload.Params{
		L2Bytes:       uint64(cfg.L2Bytes),
		LLCShareBytes: uint64(cfg.LLCBytes / cfg.Cores),
		BaseL2Bytes:   uint64(baseL2),
	}
}

// cost estimates a job's simulation work: references simulated scale with
// the core count (warmup/measure are per core and shared across a runner).
func (j job) cost() int { return j.cfg.Cores }

// runAll executes every job (cached by (config label, mix)) in parallel.
// Jobs are sorted longest-first so the schedule's tail holds the short
// jobs — a long job dispatched last would serialize behind the whole batch.
// A fixed pool of Parallelism workers drains the sorted list in order,
// which keeps the dispatch sequence deterministic (results are keyed, so
// completion order never affects output).
//
// The pool is fault-isolated: a panic inside one simulation is recovered,
// retried up to Options.MaxAttempts times, and finally recorded as a
// FailedJob — the rest of the sweep is unaffected. Completed jobs are
// journaled to the checkpoint (when configured) as they finish, and a
// requested Drain stops dispatch, waits for in-flight jobs until the
// drain expires, and marks everything left as skipped.
func (r *runner) runAll(jobs []job, baseL2 int) {
	plan, err := compileFaultSpec(r.opt.FaultSpec)
	if err != nil {
		panic(fmt.Sprintf("harness: %v (validate with ParseFaultSpec before running)", err))
	}
	drain := r.opt.Drain
	todo := make([]job, 0, len(jobs))
	seen := map[string]bool{}
	for _, j := range jobs {
		k := r.key(j.cfgLabel, j.mix.Name)
		if seen[k] {
			continue
		}
		seen[k] = true
		r.mu.Lock()
		_, done := r.results[k]
		r.mu.Unlock()
		if !done {
			todo = append(todo, j)
		}
	}
	// A sweep that is already draining runs nothing further: later
	// experiments after an interrupt park their whole matrix as skipped.
	if drain != nil && drain.Requested() {
		r.markSkipped(todo, baseL2)
		return
	}
	if p := r.opt.Progress; p != nil {
		for _, j := range todo {
			p.AddJob(j.cost())
		}
	}
	if t := r.opt.Telemetry; t != nil {
		for _, j := range todo {
			t.JobQueued(r.key(j.cfgLabel, j.mix.Name))
		}
	}
	// Checkpoint and disk-cache adoption. Observability artifacts come
	// from real runs, so obs runs skip both read paths (stores still
	// happen: results stay valid).
	if ck := r.checkpoint(); ck != nil && r.opt.Obs == nil {
		rest := todo[:0]
		for _, j := range todo {
			dk := r.diskKey(j, baseL2)
			if res, ok := ck.lookup(dk); ok {
				r.adopt(j, res, fromCheckpoint, dk)
				continue
			}
			rest = append(rest, j)
		}
		todo = rest
	}
	if r.opt.CacheDir != "" && r.opt.Obs == nil {
		rest := todo[:0]
		for _, j := range todo {
			if res, ok := r.diskLoad(j, baseL2); ok {
				r.adopt(j, res, fromCache, r.diskKey(j, baseL2))
				continue
			}
			rest = append(rest, j)
		}
		todo = rest
	}
	sort.SliceStable(todo, func(i, k int) bool {
		ci, ck := todo[i].cost(), todo[k].cost()
		if ci != ck {
			return ci > ck
		}
		return r.key(todo[i].cfgLabel, todo[i].mix.Name) < r.key(todo[k].cfgLabel, todo[k].mix.Name)
	})
	par := r.opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(todo) {
		par = len(todo)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if drain != nil && drain.Requested() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				r.runJob(todo[i], baseL2, plan)
			}
		}()
	}
	if drain == nil {
		wg.Wait()
	} else {
		// Wait for the pool, but stop waiting once a requested drain
		// expires: in-flight jobs are abandoned (their goroutines finish
		// or die with the process) and reported as skipped.
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-drain.expired():
		}
	}
	if drain != nil && drain.Requested() {
		r.markSkipped(todo, baseL2)
	}
	r.flushObsManifest()
}

// runJob runs one job to completion, failure, or abandonment, with
// bounded immediate retry around recovered panics.
func (r *runner) runJob(j job, baseL2 int, plan *faultPlan) {
	k := r.key(j.cfgLabel, j.mix.Name)
	tel := r.opt.Telemetry
	dk := ""
	if tel != nil || r.opt.CheckpointFile != "" {
		dk = r.diskKey(j, baseL2)
	}
	attempts := r.opt.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	refs := uint64(j.cfg.Cores) * uint64(r.opt.Warmup+r.opt.Measure)
	var last FailedJob
	for a := 1; a <= attempts; a++ {
		tel.AttemptStart(k, a)
		res, o, failure := r.attemptJob(j, baseL2, plan, a)
		if failure == nil {
			tel.AttemptEnd(k, dk, j.cfgLabel, j.mix.Name, a, telemetry.OutcomeDone, refs, "")
			r.mu.Lock()
			r.results[k] = res
			delete(r.failed, k)
			delete(r.skipped, k)
			delete(r.placeholders, k)
			r.completedRuns++
			n := r.completedRuns
			r.mu.Unlock()
			if ck := r.checkpoint(); ck != nil && ck.record(dk, j.cfgLabel, j.mix.Name, res) {
				tel.CheckpointRecorded(k)
			}
			if r.opt.CacheDir != "" {
				r.diskStore(j, baseL2, res)
				if plan.wantsCorrupt(k) {
					r.corruptCacheEntry(j, baseL2)
				}
			}
			if o != nil {
				r.exportObs(j, o)
			}
			if p := r.opt.Progress; p != nil {
				p.JobDone(j.cost(), refs, false)
			}
			if plan != nil && plan.drainAfter > 0 && n == plan.drainAfter && r.opt.Drain != nil {
				r.opt.Drain.Request()
			}
			return
		}
		last = *failure
		outcome := telemetry.OutcomeRetry
		if a == attempts {
			outcome = telemetry.OutcomeFailed
		}
		tel.AttemptEnd(k, dk, j.cfgLabel, j.mix.Name, a, outcome, 0, failure.Err)
	}
	last.Attempts = attempts
	r.mu.Lock()
	r.failed[k] = last
	r.placeholders[k] = placeholderResult(j)
	r.mu.Unlock()
	r.noteObsOutcome(j, "failed", nil)
	if p := r.opt.Progress; p != nil {
		p.JobFailed(j.cost())
	}
}

// attemptJob performs one recovered attempt of a job. A panic — the
// simulator's invariant checks panic by design, and FaultSpec injects
// panics on the same path — becomes a FailedJob carrying the stack.
func (r *runner) attemptJob(j job, baseL2 int, plan *faultPlan, attempt int) (res Result, o *obs.Observer, failure *FailedJob) {
	defer func() {
		if p := recover(); p != nil {
			failure = &FailedJob{
				CfgLabel: j.cfgLabel,
				Mix:      j.mix.Name,
				Seed:     r.opt.Seed,
				Attempts: attempt,
				Err:      fmt.Sprint(p),
				Stack:    string(debug.Stack()),
			}
			o = nil
		}
	}()
	plan.beforeAttempt(r.key(j.cfgLabel, j.mix.Name), attempt)
	p := paramsFor(j.cfg, baseL2)
	gens := workload.BuildMix(j.mix, p, r.opt.Seed)
	if oo := r.opt.Obs; oo != nil {
		o = obs.New(j.cfg.Cores, j.cfg.LLCBanks, obs.Config{
			IntervalCycles: oo.IntervalCycles,
			MaxIntervals:   oo.MaxIntervals,
			EventCapacity:  oo.EventCapacity,
		})
	}
	res = runOne(j.cfg, gens, r.opt.Warmup, r.opt.Measure, o)
	return res, o, nil
}

// adoptSource tells adopt which hit counter a served Result advances.
type adoptSource int

const (
	fromCheckpoint adoptSource = iota
	fromCache
)

// adopt installs a cache- or checkpoint-served Result and advances the
// matching hit counter plus the progress line and telemetry sink. The
// counter is selected by kind rather than by pointer so the guarded
// fields never escape the critical section. dk is the job's
// content-addressed disk key, already computed by the adoption scan.
func (r *runner) adopt(j job, res Result, src adoptSource, dk string) {
	k := r.key(j.cfgLabel, j.mix.Name)
	r.mu.Lock()
	r.results[k] = res
	delete(r.failed, k)
	delete(r.skipped, k)
	delete(r.placeholders, k)
	if src == fromCheckpoint {
		r.ckptHits++
	} else {
		r.cacheHits++
	}
	r.mu.Unlock()
	if p := r.opt.Progress; p != nil {
		p.JobDone(j.cost(), 0, true)
	}
	if t := r.opt.Telemetry; t != nil {
		outcome := telemetry.OutcomeCacheHit
		if src == fromCheckpoint {
			outcome = telemetry.OutcomeCheckpointHit
		}
		t.JobAdopted(k, dk, j.cfgLabel, j.mix.Name, outcome)
	}
}

// markSkipped records every job of the slice that has neither completed
// nor failed as skipped by the drain, with a placeholder result so table
// rendering stays total. The telemetry sink is notified outside the
// critical section (it takes its own locks).
func (r *runner) markSkipped(jobs []job, baseL2 int) {
	var telSkipped []job
	r.mu.Lock()
	for _, j := range jobs {
		k := r.key(j.cfgLabel, j.mix.Name)
		if _, done := r.results[k]; done {
			continue
		}
		if _, failed := r.failed[k]; failed {
			continue
		}
		r.skipped[k] = true
		r.placeholders[k] = placeholderResult(j)
		r.noteObsOutcomeLocked(j, "skipped", nil)
		telSkipped = append(telSkipped, j)
	}
	r.mu.Unlock()
	if t := r.opt.Telemetry; t != nil {
		for _, j := range telSkipped {
			t.JobSkipped(r.key(j.cfgLabel, j.mix.Name), r.diskKey(j, baseL2), j.cfgLabel, j.mix.Name)
		}
	}
}

// checkpoint lazily opens the sweep checkpoint named by the options, once
// per runner; nil when checkpointing is off or the file is unusable.
func (r *runner) checkpoint() *checkpoint {
	if r.opt.CheckpointFile == "" {
		return nil
	}
	r.ckptOnce.Do(func() {
		ck, err := openCheckpoint(r.opt.CheckpointFile, r.opt.Resume, r.opt.checkpointOptionsHash())
		if err != nil {
			fmt.Fprintf(os.Stderr, "harness: checkpoint %s: %v (checkpointing disabled)\n", r.opt.CheckpointFile, err)
			return
		}
		r.ckpt = ck
	})
	return r.ckpt
}

// release closes the runner's checkpoint journal. It first settles the
// lazy open, so a job still in flight after an expired drain can neither
// open the journal afterwards nor race the close; its later record finds
// the journal closed and writes nothing.
func (r *runner) release() {
	r.ckptOnce.Do(func() {})
	if r.ckpt != nil {
		r.ckpt.close()
	}
}

// placeholderResult is the zero-valued stand-in stored for failed and
// skipped jobs: core-count-shaped so metric helpers (which insist on
// matching core counts) render zeros instead of panicking.
func placeholderResult(j job) Result {
	return Result{Config: j.cfg, Cores: make([]metrics.CoreStats, j.cfg.Cores)}
}

// get returns a completed result, or the zero-shaped placeholder for a
// job that failed or was skipped by a drain (Status reports which).
// A key the sweep never scheduled is still a programming error.
func (r *runner) get(cfgLabel, mixName string) Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[r.key(cfgLabel, mixName)]
	if ok {
		return res
	}
	if ph, ok := r.placeholders[r.key(cfgLabel, mixName)]; ok {
		return ph
	}
	panic(fmt.Sprintf("harness: missing result for %s on %s", cfgLabel, mixName))
}

// SweepStatus summarizes the job-level outcomes of one sweep: a
// RunSweep call's Report, or every Experiment.Run under one Options
// value (those share a memoized runner, so this is the whole `-fig all`
// picture).
type SweepStatus struct {
	// Completed counts jobs with a real Result, whether simulated this
	// process or adopted from the disk cache or checkpoint.
	Completed int `json:"completed"`
	// CacheHits counts jobs served by the persistent disk cache.
	CacheHits int `json:"cache_hits"`
	// CheckpointHits counts jobs adopted from a resumed checkpoint.
	CheckpointHits int `json:"checkpoint_hits"`
	// Failed lists jobs that exhausted their attempts, sorted by
	// (config label, mix).
	Failed []FailedJob `json:"failed,omitempty"`
	// Skipped lists the "cfgLabel|mix" keys a drain prevented from
	// running, sorted.
	Skipped []string `json:"skipped,omitempty"`
}

// Status reports the sweep status of the memoized runner for an Options
// value — the direct Experiment.Run path; the zero status if no
// experiment has run under it. RunSweep reports its own sweep's status
// in the Report instead. Unlike newRunner, the lookup never updates the
// runner's options: Status may be called while an expired drain has
// left an abandoned job in flight, and that job still reads them.
func Status(opt Options) SweepStatus {
	runnersMu.Lock()
	r := runners[opt.normalized()]
	runnersMu.Unlock()
	if r == nil {
		return SweepStatus{}
	}
	return r.status()
}

// status summarizes the runner's job outcomes.
func (r *runner) status() SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := SweepStatus{
		Completed:      len(r.results),
		CacheHits:      r.cacheHits,
		CheckpointHits: r.ckptHits,
	}
	var failedKeys []string
	for k := range r.failed {
		failedKeys = append(failedKeys, k)
	}
	sort.Strings(failedKeys)
	for _, k := range failedKeys {
		st.Failed = append(st.Failed, r.failed[k])
	}
	for k := range r.skipped {
		st.Skipped = append(st.Skipped, k)
	}
	sort.Strings(st.Skipped)
	return st
}

// mixes picks the experiment's workload mixes per the options.
func (o Options) mixes() []workload.Mix {
	var out []workload.Mix
	homo := workload.HomogeneousMixes(o.Cores)
	// Spread homogeneous picks across behaviour families.
	if o.HomoMixes >= len(homo) {
		out = append(out, homo...)
	} else {
		stride := len(homo) / max(o.HomoMixes, 1)
		for i := 0; i < o.HomoMixes; i++ {
			out = append(out, homo[i*stride])
		}
	}
	out = append(out, workload.HeterogeneousMixes(o.Cores, o.HeteroMixes, o.Seed)...)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table is a rendered experiment result.
type Table struct {
	Title   string   `json:"title"`           // heading printed above the table
	Columns []string `json:"columns"`         // column headers, one per value in each row
	Rows    []Row    `json:"rows"`            // labeled data series
	Notes   []string `json:"notes,omitempty"` // free-form footnotes appended after the rows
}

// Row is one labeled series of values.
type Row struct {
	Label  string    `json:"label"`  // series name, printed in the first column
	Values []float64 `json:"values"` // one value per Table column
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	width := 24
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteString("," + c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one reproducible figure.
type Experiment struct {
	ID    string               // stable identifier ("fig8"), the -fig selector
	Title string               // human-readable figure title
	Run   func(Options) *Table // computes the figure under the given options
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

// Experiments lists all registered figures in id order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
