package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// obsOptions is a tiny configuration for observability tests.
func obsOptions() Options {
	return Options{
		Scale:       32,
		Cores:       2,
		HeteroMixes: 1,
		HomoMixes:   0,
		Warmup:      1_000,
		Measure:     4_000,
		TPCECores:   2,
		Seed:        20210614,
		Parallelism: 1,
	}
}

// TestObsInvariance proves attaching the observability layer does not
// change a single simulated decision: the same figure renders
// byte-identically with obs off and obs fully on (sampler + events, no
// artifact output).
func TestObsInvariance(t *testing.T) {
	offTab, _ := runFig(t, "fig1", obsOptions())
	off := offTab.Format()

	on := obsOptions()
	on.Obs = &ObsOptions{IntervalCycles: 2_000, EventCapacity: 1 << 12}
	onTab, _ := runFig(t, "fig1", on)
	if got := onTab.Format(); got != off {
		t.Fatalf("observability changed simulator output:\n--- obs off ---\n%s\n--- obs on ---\n%s", off, got)
	}
}

// TestObsArtifacts runs a small figure with artifact output and checks
// every job produced a loadable Chrome trace, NDJSON events and an
// interval CSV with the expected header.
func TestObsArtifacts(t *testing.T) {
	dir := t.TempDir()
	opt := obsOptions()
	opt.Obs = &ObsOptions{
		IntervalCycles: 1_000,
		EventCapacity:  1 << 12,
		OutDir:         dir,
	}
	runFig(t, "fig1", opt)

	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no trace artifacts in %s (err %v)", dir, err)
	}
	for _, path := range traces {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
		if len(f.TraceEvents) == 0 {
			t.Fatalf("%s: empty traceEvents", path)
		}
	}

	csvs, err := filepath.Glob(filepath.Join(dir, "*.intervals.csv"))
	if err != nil || len(csvs) != len(traces) {
		t.Fatalf("got %d interval CSVs for %d traces (err %v)", len(csvs), len(traces), err)
	}
	data, err := os.ReadFile(csvs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "scope,interval,id,") {
		t.Fatalf("unexpected CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}

	nds, _ := filepath.Glob(filepath.Join(dir, "*.events.ndjson"))
	if len(nds) != len(traces) {
		t.Fatalf("got %d NDJSON dumps for %d traces", len(nds), len(traces))
	}
}

func TestArtifactStem(t *testing.T) {
	got := artifactStem("I-LRU s=8", "hetero/0")
	if strings.ContainsAny(got, "/ ") {
		t.Fatalf("stem %q not filesystem-safe", got)
	}
	if got != "I-LRU_s_8-hetero_0" {
		t.Fatalf("stem = %q", got)
	}
}

// TestProgressReporter drives the reporter with a fake clock and checks
// the rendered line and its throttling.
func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	p := NewProgress(&buf, func() time.Time { return clock })

	for i := 0; i < 3; i++ {
		p.AddJob(8)
	}
	clock = clock.Add(2 * time.Second)
	p.JobDone(8, 80_000, false)
	out := buf.String()
	if !strings.Contains(out, "1/3 runs") {
		t.Fatalf("first render = %q", out)
	}
	if !strings.Contains(out, "0.04M refs/s") {
		t.Fatalf("rate missing from %q", out)
	}
	if !strings.Contains(out, "ETA 4s") {
		t.Fatalf("eta missing from %q", out)
	}

	// Within the throttle window nothing new is printed.
	n := buf.Len()
	clock = clock.Add(50 * time.Millisecond)
	p.JobDone(8, 0, true)
	if buf.Len() != n {
		t.Fatalf("throttled render still wrote output: %q", buf.String()[n:])
	}

	// The final job always renders, and Finish terminates the line.
	clock = clock.Add(time.Second)
	p.JobDone(8, 80_000, false)
	p.Finish()
	out = buf.String()
	if !strings.Contains(out, "3/3 runs") || !strings.Contains(out, "1 cached") {
		t.Fatalf("final render = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", out)
	}
}
