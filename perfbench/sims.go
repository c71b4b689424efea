package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"time"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/dram"
	"zivsim/internal/hierarchy"
	"zivsim/internal/metrics"
	"zivsim/internal/trace"
	"zivsim/internal/workload"
)

// family is one LLC design of a figure's configuration matrix.
type family struct {
	name   string
	mode   hierarchy.InclusionMode
	pol    hierarchy.PolicyKind
	scheme core.Scheme
	prop   core.Property
}

// lruMatrix is Fig. 8's LRU-baseline matrix.
var lruMatrix = []family{
	{"I-LRU", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeBaseline, core.PropNone},
	{"NI-LRU", hierarchy.NonInclusive, hierarchy.PolicyLRU, core.SchemeBaseline, core.PropNone},
	{"QBS-LRU", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeQBS, core.PropNone},
	{"SHARP-LRU", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeSHARP, core.PropNone},
	{"CHARonBase", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeCHARonBase, core.PropNone},
	{"ZIV-NotInPrC", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeZIV, core.PropNotInPrC},
	{"ZIV-LikelyDead", hierarchy.Inclusive, hierarchy.PolicyLRU, core.SchemeZIV, core.PropLikelyDead},
}

// hawkeyeMatrix is Fig. 17's Hawkeye-baseline matrix.
var hawkeyeMatrix = []family{
	{"I-Hawkeye", hierarchy.Inclusive, hierarchy.PolicyHawkeye, core.SchemeBaseline, core.PropNone},
	{"NI-Hawkeye", hierarchy.NonInclusive, hierarchy.PolicyHawkeye, core.SchemeBaseline, core.PropNone},
	{"QBS-Hawkeye", hierarchy.Inclusive, hierarchy.PolicyHawkeye, core.SchemeQBS, core.PropNone},
	{"SHARP-Hawkeye", hierarchy.Inclusive, hierarchy.PolicyHawkeye, core.SchemeSHARP, core.PropNone},
	{"ZIV-MRNotInPrC", hierarchy.Inclusive, hierarchy.PolicyHawkeye, core.SchemeZIV, core.PropMaxRRPVNotInPrC},
	{"ZIV-MRLikelyDead", hierarchy.Inclusive, hierarchy.PolicyHawkeye, core.SchemeZIV, core.PropMaxRRPVLikelyDead},
}

func (f family) apply(cfg hierarchy.Config) hierarchy.Config {
	cfg.Mode, cfg.Policy, cfg.Scheme, cfg.Property = f.mode, f.pol, f.scheme, f.prop
	return cfg
}

// simJob is one simulation: a machine configuration and the generators
// that feed it. gens builds fresh generators, so every execution of the
// job simulates exactly the same inputs.
type simJob struct {
	label           string
	cfg             hierarchy.Config
	gens            func() []trace.Generator
	warmup, measure int
}

// refs is the number of references the job simulates (all cores, warmup
// included).
func (j *simJob) refs() uint64 { return uint64(j.cfg.Cores) * uint64(j.warmup+j.measure) }

// Scale of the multi-programmed workload: 8 cores at 1/64 of Table I's
// capacities (512 B L1, 8 KB L2, 128 KB LLC). Jobs are small on purpose:
// the replay percentiles need over a thousand executions per run.
const (
	mpCores   = 8
	mpScale   = 64
	mpL2      = 512 << 10
	mpWarmup  = 500
	mpMeasure = 1500
	// mpHetero heterogeneous mixes of 8 cores hold 72 slots, so each of
	// the 36 archetypes appears exactly twice whatever the seed.
	mpHetero = 9
)

// mpLRUJobs builds the mp-lru job set: every LRU-matrix design over 12
// homogeneous mixes, one archetype of each of the 12 families (variants
// a, b, c in turn), and 9 heterogeneous mixes drawn from the seed. The
// archetypes' reference streams come from the seed; the mix composition
// is the same for every seed, so the job set's cost hardly depends on it.
// The first job, set-up's warm-up, is homogeneous for the same reason.
func mpLRUJobs(seed uint64) []simJob {
	var mixes []workload.Mix
	homo := workload.HomogeneousMixes(mpCores)
	for fam := 0; fam < len(homo)/3; fam++ {
		mixes = append(mixes, homo[3*fam+fam%3])
	}
	mixes = append(mixes, workload.HeterogeneousMixes(mpCores, mpHetero, seed)...)
	var jobs []simJob
	for _, f := range lruMatrix {
		cfg := f.apply(hierarchy.DefaultConfig(mpCores, mpL2, mpScale))
		p := workload.Params{
			L2Bytes:       uint64(cfg.L2Bytes),
			LLCShareBytes: uint64(cfg.LLCBytes / cfg.Cores),
			BaseL2Bytes:   uint64(256 << 10 / mpScale),
		}
		for _, mix := range mixes {
			mix := mix
			jobs = append(jobs, simJob{
				label:  f.name + "|" + mix.Name,
				cfg:    cfg,
				gens:   func() []trace.Generator { return workload.BuildMix(mix, p, seed) },
				warmup: mpWarmup, measure: mpMeasure,
			})
		}
	}
	return jobs
}

// Scale of the multi-threaded workload: 4 threads at 1/32 of Table I's
// capacities, with tpce on its own small-L2, small-LLC-share geometry as
// in Fig. 17.
const (
	mtCores   = 4
	mtScale   = 32
	mtWarmup  = 1000
	mtMeasure = 3000
)

// mtHawkeyeJobs builds the mt-hawkeye job set: every Hawkeye-matrix design
// over every multi-threaded workload.
func mtHawkeyeJobs(seed uint64) []simJob {
	var jobs []simJob
	for _, f := range hawkeyeMatrix {
		for _, w := range workload.MTWorkloads() {
			w := w
			l2, llc := 512<<10, 0
			if w.Name == "tpce" {
				l2, llc = 128<<10, mtCores*(256<<10)
			}
			cfg := f.apply(hierarchy.DefaultConfig(mtCores, l2, mtScale))
			if llc > 0 {
				cfg.LLCBytes = llc / mtScale
			}
			p := workload.Params{
				L2Bytes:       uint64(cfg.L2Bytes),
				LLCShareBytes: uint64(cfg.LLCBytes / cfg.Cores),
				BaseL2Bytes:   uint64(cfg.L2Bytes),
			}
			jobs = append(jobs, simJob{
				label:  f.name + "|" + w.Name,
				cfg:    cfg,
				gens:   func() []trace.Generator { return w.Build(mtCores, p, seed) },
				warmup: mtWarmup, measure: mtMeasure,
			})
		}
	}
	return jobs
}

func runMPLRU(cfg runConfig, tr *tracer) (outcome, error) {
	return runSims("mp-lru", mpLRUJobs, cfg, tr)
}

func runMTHawkeye(cfg runConfig, tr *tracer) (outcome, error) {
	return runSims("mt-hawkeye", mtHawkeyeJobs, cfg, tr)
}

// splitmix returns a deterministic 64-bit generator seeded by seed.
func splitmix(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}

// simStats is everything a finished machine reports through its public
// statistics.
type simStats struct {
	Cores           []metrics.CoreStats
	LLC             core.Stats
	Dir             directory.Stats
	Mem             dram.Stats
	CoherenceInvals uint64
}

func statsOf(m *hierarchy.Machine) simStats {
	return simStats{
		Cores:           m.CoreStats(),
		LLC:             m.LLC().Stats,
		Dir:             m.Directory().Stats,
		Mem:             m.Memory().Stats,
		CoherenceInvals: m.CoherenceInvals,
	}
}

// digest hashes the complete statistics; two executions of one job must
// produce the same digest.
func (s *simStats) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", *s)
	return hex.EncodeToString(h.Sum(nil))
}

// inclusionVictims sums back-invalidation inclusion victims over cores.
func (s *simStats) inclusionVictims() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.InclusionVictims
	}
	return n
}

// check returns why an execution's result is wrong, or "" when it is
// right: ZIV must produce no inclusion victim and no forced inclusion,
// inclusive non-ZIV machines must pass the inclusion invariants, and
// every execution must repeat the job's first statistics exactly.
func check(j *simJob, m *hierarchy.Machine, st *simStats, digest, first string) string {
	switch {
	case j.cfg.Scheme == core.SchemeZIV && st.inclusionVictims() != 0:
		return fmt.Sprintf("ZIV produced %d inclusion victims", st.inclusionVictims())
	case j.cfg.Scheme == core.SchemeZIV && st.LLC.ForcedInclusions != 0:
		return fmt.Sprintf("ZIV forced %d inclusions", st.LLC.ForcedInclusions)
	case digest != first:
		return "statistics differ from the job's first execution"
	}
	if j.cfg.Scheme != core.SchemeZIV && j.cfg.Mode == hierarchy.Inclusive {
		if err := m.CheckInclusion(); err != nil {
			return "CheckInclusion: " + err.Error()
		}
	}
	return ""
}

// simulate executes one job and returns the finished machine, recording
// a span per public call when tracing.
func simulate(j *simJob, tr *tracer, op string, parent int) (m *hierarchy.Machine, build, newT, runT time.Duration) {
	s := tr.begin("sim", "workload.BuildMix", op, parent)
	t0 := time.Now()
	gens := j.gens()
	t1 := time.Now()
	tr.end(s)
	s = tr.begin("sim", "hierarchy.New", op, parent)
	m = hierarchy.New(j.cfg, gens, j.warmup, j.measure)
	t2 := time.Now()
	tr.end(s)
	s = tr.begin("sim", "Machine.Run", op, parent)
	m.Run()
	t3 := time.Now()
	tr.end(s)
	return m, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
}

// simSetupRepeats is how many times a simulator workload's set-up runs;
// setup_s is their median. One set-up takes some 20 ms, so a single GC
// cycle or page-fault burst can double it: many repeats keep the median
// steady.
const simSetupRepeats = 15

// minReplays is the least number of replays a run aims for: replay_p99_ms
// needs ten samples beyond the percentile.
const minReplays = 1000

// runSims measures one simulator workload. Set-up builds the job set and
// runs one untimed warm-up job, simSetupRepeats times. The measured phase then runs
// rounds, each executing every job once in a seed-shuffled order, until
// the measuring time is up, at least three rounds have run and the replay
// percentiles have enough samples (bounded at 1.3x the measuring time).
// Every execution is checked; per-job medians across rounds give
// sim_refs_per_s.
func runSims(name string, build func(uint64) []simJob, cfg runConfig, tr *tracer) (outcome, error) {
	var jobs []simJob
	var setups []float64
	for i := 0; i < simSetupRepeats; i++ {
		t0 := time.Now()
		jobs = build(cfg.seed)
		simulate(&jobs[0], nil, "", 0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	rnd := splitmix(cfg.seed ^ 0x5bd1e995)
	for i := len(order) - 1; i > 0; i-- {
		k := int(rnd() % uint64(i+1))
		order[i], order[k] = order[k], order[i]
	}

	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	perJob := make([][]float64, len(jobs)) // seconds per execution
	first := make([]simStats, len(jobs))
	firstDigest := make([]string, len(jobs))
	var all, replays []float64 // ms per execution
	var builds, news []float64 // ms, traced phase only
	var runNS, runRefs float64
	rounds := 0
	var roundSecs []float64
	alloc0 := totalAlloc()
	start := time.Now()
	var replayStart time.Time
	for {
		el := time.Since(start).Seconds()
		enough := el >= cfg.seconds && rounds >= 3 && len(replays) >= minReplays
		if enough || (rounds >= 3 && el >= 1.3*cfg.seconds) {
			break
		}
		if rounds == 1 {
			replayStart = time.Now()
		}
		roundStart := time.Now()
		for _, ji := range order {
			j := &jobs[ji]
			op := fmt.Sprintf("%s#%d", j.label, rounds)
			root := tr.begin("sim", "job", op, 0)
			t0 := time.Now()
			m, b, n, r := simulate(j, tr, op, root)
			dt := time.Since(t0)
			s := tr.begin("sim", "check", op, root)
			st := statsOf(m)
			dg := st.digest()
			if rounds == 0 {
				first[ji], firstDigest[ji] = st, dg
			}
			out.attempted++
			if why := check(j, m, &st, dg, firstDigest[ji]); why != "" {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s: %s\n", name, op, why)
			}
			tr.end(s)
			tr.end(root)
			perJob[ji] = append(perJob[ji], dt.Seconds())
			ms := float64(dt.Nanoseconds()) / 1e6
			all = append(all, ms)
			if rounds > 0 {
				replays = append(replays, ms)
			}
			if tr != nil {
				builds = append(builds, float64(b.Nanoseconds())/1e6)
				news = append(news, float64(n.Nanoseconds())/1e6)
				runNS += float64(r.Nanoseconds())
				runRefs += float64(j.refs())
			}
		}
		roundSecs = append(roundSecs, time.Since(roundStart).Seconds())
		rounds++
	}
	elapsed := time.Since(start).Seconds()
	replayElapsed := time.Since(replayStart).Seconds()
	allocated := totalAlloc() - alloc0

	var refs, medSum float64
	for i := range jobs {
		refs += float64(jobs[i].refs())
		medSum += median(perJob[i])
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	e := out.e2e
	e["sim_refs_per_s"] = refs / medSum
	e["alloc_mb"] = float64(allocated) / float64(rounds) / (1 << 20)
	e["peak_rss_mb"] = rss
	e["setup_s"] = median(setups)
	e["submit_done_p50_ms"] = median(all)
	e["submit_done_p90_ms"] = tail("submit_done_p90_ms", all, 0.90)
	e["jobs_per_s"] = float64(len(all)) / elapsed
	e["replay_p50_ms"] = median(replays)
	e["replay_p99_ms"] = tail("replay_p99_ms", replays, 0.99)
	e["replay_req_per_s"] = float64(len(replays)) / replayElapsed
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d jobs x %d rounds in %.1fs, %d replays; round seconds min %.2f median %.2f max %.2f\n", name, len(jobs), rounds, elapsed, len(replays),
		quantile(roundSecs, 0), median(roundSecs), quantile(roundSecs, 1))

	counts := exactCounts(first)
	if tr == nil {
		printFingerprint(name, cfg.seed, jobs, first, firstDigest, counts)
		return out, nil
	}
	for k, v := range counts {
		out.layers[k] = v
	}
	out.layers["workload.build_ms"] = median(builds)
	out.layers["hierarchy.new_ms"] = median(news)
	out.layers["hierarchy.run_ns_per_ref"] = runNS / runRefs
	var lt layerTimes
	for i := range jobs {
		out.attempted++
		if err := replayLayers(&jobs[i], tr, &lt); err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED layer replay of %s: %v\n", name, jobs[i].label, err)
		}
	}
	lt.report(out.layers)
	return out, nil
}

// exactCounts aggregates the simulated counters over every distinct job
// (first execution). They depend only on the seed.
func exactCounts(sts []simStats) map[string]float64 {
	var cs metrics.CoreStats
	var llc core.Stats
	var dir directory.Stats
	var mem dram.Stats
	for _, s := range sts {
		for _, c := range s.Cores {
			cs.Sum(c)
		}
		llc.Fills += s.LLC.Fills
		llc.Relocations += s.LLC.Relocations
		llc.RelocatedHits += s.LLC.RelocatedHits
		llc.ForcedInclusions += s.LLC.ForcedInclusions
		dir.Lookups += s.Dir.Lookups
		dir.Hits += s.Dir.Hits
		dir.Evictions += s.Dir.Evictions
		mem.Reads += s.Mem.Reads
		mem.Writes += s.Mem.Writes
		mem.RowHits += s.Mem.RowHits
		mem.RowMisses += s.Mem.RowMisses
	}
	return map[string]float64{
		"hierarchy.ipc":          cs.IPC(),
		"cache.l2_hit_ratio":     ratio(float64(cs.L2Hits), float64(cs.L2Hits+cs.L2Misses)),
		"core.fills":             float64(llc.Fills),
		"core.relocations":       float64(llc.Relocations),
		"core.reloc_hit_ratio":   ratio(float64(llc.RelocatedHits), float64(llc.Relocations)),
		"core.inclusion_victims": float64(cs.InclusionVictims),
		"core.forced_inclusions": float64(llc.ForcedInclusions),
		"directory.lookups":      float64(dir.Lookups),
		"directory.evictions":    float64(dir.Evictions),
		"directory.hit_ratio":    ratio(float64(dir.Hits), float64(dir.Lookups)),
		"directory.incl_victims": float64(cs.DirInclusionVictims),
		"dram.accesses":          float64(mem.Accesses()),
		"dram.row_hit_ratio":     mem.RowHitRate(),
	}
}

// printFingerprint prints the workload's exact simulated counters and a
// digest over every job's complete statistics, so a change meant to alter
// only speed can show that simulated behaviour is unchanged.
func printFingerprint(name string, seed uint64, jobs []simJob, sts []simStats, digests []string, counts map[string]float64) {
	h := sha256.New()
	for i := range jobs {
		fmt.Fprintf(h, "%s %s\n", jobs[i].label, digests[i])
	}
	fmt.Printf("fingerprint %s seed=%d jobs=%d digest=%s\n", name, seed, len(sts), hex.EncodeToString(h.Sum(nil)))
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %.10g\n", k, counts[k])
	}
	fmt.Println("  (simulated counters of the model itself; the model is not validated against hardware, so no error figure is given)")
}
