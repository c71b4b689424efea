// Command perfbench is zivsim's same-host benchmark. One invocation runs
// one workload for a fixed measuring time, checks that every simulated
// result and every served response is correct, and prints one JSON object
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run is repeated with spans recorded around every public call, the
// per-layer metrics are reported, and the span timeline is written for
// Perfetto and validated with zivreport -checktrace. NOTES.md explains the
// workloads, the estimators and the metric-to-layer map.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload mp-lru --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists every end-to-end metric with its unit, in BENCHMARK.json
// order. Every workload reports all of them (see NOTES.md for what each
// means on each workload).
var endToEnd = []struct{ name, unit string }{
	{"sim_refs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"submit_done_p50_ms", "ms"},
	{"submit_done_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"replay_p50_ms", "ms"},
	{"replay_p99_ms", "ms"},
	{"replay_req_per_s", "1/s"},
}

// perLayer lists every per-layer metric with its unit. A workload reports
// 0 for a layer that is not on its path (NOTES.md lists which).
var perLayer = []struct{ name, unit string }{
	{"trace.next_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"policy.rank_ns", "ns"},
	{"directory.op_ns", "ns"},
	{"core.fill_ns", "ns"},
	{"workload.build_ms", "ms"},
	{"hierarchy.new_ms", "ms"},
	{"hierarchy.run_ns_per_ref", "ns"},
	{"hierarchy.ipc", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"core.fills", "count"},
	{"core.relocations", "count"},
	{"core.reloc_hit_ratio", "ratio"},
	{"core.inclusion_victims", "count"},
	{"core.forced_inclusions", "count"},
	{"directory.lookups", "count"},
	{"directory.evictions", "count"},
	{"directory.hit_ratio", "ratio"},
	{"directory.incl_victims", "count"},
	{"dram.accesses", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"server.queue_wait_ms", "ms"},
	{"harness.sweep_ms", "ms"},
	{"harness.sims_per_sweep", "count"},
	{"server.submit_ms", "ms"},
	{"server.get_ms", "ms"},
	{"server.get_kb", "KB"},
	{"server.events_per_sweep", "count"},
	{"server.rejected", "count"},
	{"harness.rss_kb_per_identity", "KB"},
}

// overheadPrefix names the per-layer metrics that report tracing overhead:
// the traced phase's value minus the untraced phase's, per end-to-end
// metric.
const overheadPrefix = "trace_overhead."

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end values by name
	layers            map[string]float64 // per-layer values (traced phases only)
}

// workloadFn runs one measured phase. tr is nil for an untraced phase.
type workloadFn func(cfg runConfig, tr *tracer) (outcome, error)

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	outDir  string
	// phase is 0 for the untraced phase and 1 for the traced one, so a
	// workload can give each phase its own identities.
	phase uint64
}

var workloads = map[string]workloadFn{
	"mp-lru":     runMPLRU,
	"mt-hawkeye": runMTHawkeye,
	"serve-jobs": runServeJobs,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload: mp-lru, mt-hawkeye or serve-jobs")
		seed      = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 30, "measuring time of one phase, in seconds")
		traced    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		outDir    = flag.String("out", ".bench_build/perfbench-out", "directory for the span timeline")
		zivreport = flag.String("zivreport", "", "zivreport binary used to validate the timeline (-trace 1)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload mp-lru|mt-hawkeye|serve-jobs --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}

	untraced, err := w(cfg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep := report{Attempted: untraced.attempted, Failed: untraced.failed, Metrics: map[string]metric{}}
	if *traced == 0 {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{untraced.e2e[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		cfg.phase = 1
		tracedOut, err := w(cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", *name, err)
			return 1
		}
		rep.Attempted += tracedOut.attempted
		rep.Failed += tracedOut.failed
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{tracedOut.layers[m.name], m.unit}
		}
		for _, m := range endToEnd {
			rep.Metrics[overheadPrefix+m.name] = metric{tracedOut.e2e[m.name] - untraced.e2e[m.name], m.unit}
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.trace.json", *name, *seed))
		rep.Attempted++
		if n, err := tr.write(path, *name, *zivreport); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: timeline: %v\n", err)
			rep.Failed++
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: timeline %s (%d spans) passes zivreport -checktrace\n", path, n)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for name, m := range rep.Metrics {
		if m.Value != m.Value { // NaN: a metric with no samples
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no samples\n", name)
			rep.Correct = false
			m.Value = 0
			rep.Metrics[name] = m
		}
	}
	printMetrics(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printMetrics writes a readable table of the metrics before the JSON line.
func printMetrics(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
}
