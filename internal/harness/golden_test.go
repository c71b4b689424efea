package harness

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current simulator output")

// goldenOptions is a reduced-but-representative configuration used by the
// bit-identity gate: small enough to run in CI, large enough that every
// scheme, policy and property sees real contention. The golden file was
// generated before the hot-path optimization pass; any optimization that
// perturbs a single simulated decision changes these tables.
func goldenOptions() Options {
	return Options{
		Scale:       32,
		Cores:       8,
		HeteroMixes: 2,
		HomoMixes:   2,
		Warmup:      2_000,
		Measure:     8_000,
		TPCECores:   8,
		Seed:        20210614,
	}
}

// goldenFigures is the default subset of the gate. It covers every victim
// selection scheme (Baseline, QBS, SHARP, CHARonBase, ZIV), both inclusion
// modes, LRU and Hawkeye, the ZeroDEV directory and the nextRS ablation.
// Set ZIVSIM_GOLDEN=all to run every registered experiment.
func goldenFigures() (ids []string, file string) {
	if os.Getenv("ZIVSIM_GOLDEN") == "all" {
		var all []string
		for _, e := range Experiments() {
			all = append(all, e.ID)
		}
		return all, "golden_all.txt"
	}
	return []string{"fig1", "fig8", "fig15", "ext2"}, "golden_small.txt"
}

// renderGolden produces the canonical text the golden file stores: each
// experiment's formatted table, in the order of ids, separated by blank
// lines. The experiments run in one sweep, sharing the simulations their
// matrices have in common.
func renderGolden(t *testing.T, ids []string, o Options) string {
	t.Helper()
	rep, err := RunSweep(Request{Figs: ids, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*Table{}
	for _, fr := range rep.Figures {
		if fr.Err != "" {
			t.Fatalf("%s panicked: %s", fr.ID, fr.Err)
		}
		tables[fr.ID] = fr.Table
	}
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(tables[id].Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenDeterminism proves the simulator is bit-identical to the run
// recorded in testdata/golden_small.txt (generated before the optimization
// pass). Regenerate deliberately with `go test ./internal/harness -run
// TestGoldenDeterminism -update` — but only when simulated behaviour is
// *meant* to change, never to absorb an optimization's drift.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden gate skipped in -short mode")
	}
	ids, file := goldenFigures()
	got := renderGolden(t, ids, goldenOptions())
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, figures %v)", path, len(got), ids)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("simulator output diverged from golden run.\nFigures: %v\nThis means an 'optimization' changed simulated behaviour.\n%s",
			ids, firstDiff(string(want), got))
	}
}

// TestGoldenResultsAll compares the full default-options -fig all run
// against the recorded results_all.txt tables. It simulates the complete
// (configuration x mix) matrix at DefaultOptions and takes tens of minutes
// on one CPU, so it only runs when ZIVSIM_GOLDEN=full.
func TestGoldenResultsAll(t *testing.T) {
	if os.Getenv("ZIVSIM_GOLDEN") != "full" {
		t.Skip("set ZIVSIM_GOLDEN=full to run the full results_all.txt gate")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := stripTimings(string(raw))
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	got := stripTimings(renderGolden(t, ids, DefaultOptions()))
	if got != want {
		t.Fatalf("full -fig all output diverged from results_all.txt.\n%s", firstDiff(want, got))
	}
}

// timingLine matches the "(figN in 3m18.674s)" wall-clock lines the CLI
// appends; they are the only non-deterministic content of results_all.txt.
var timingLine = regexp.MustCompile(`(?m)^\(\w+ in [^)]*\)\n`)

func stripTimings(s string) string { return timingLine.ReplaceAllString(s, "") }

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return "first difference at line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "outputs differ in length: want " + itoa(len(wl)) + " lines, got " + itoa(len(gl))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var d []byte
	for i > 0 {
		d = append([]byte{byte('0' + i%10)}, d...)
		i /= 10
	}
	return string(d)
}
