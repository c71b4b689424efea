package harness

import (
	"strings"
	"testing"

	"zivsim/internal/workload"
)

// tinyOptions keeps harness tests fast: a 1/64-scale machine, two mixes,
// short segments.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 64
	o.HeteroMixes = 1
	o.HomoMixes = 1
	o.Warmup = 2000
	o.Measure = 8000
	o.TPCECores = 8
	return o
}

// runFig runs one experiment in a sweep of its own and returns its table
// (nil when a drain cut the sweep short) and the sweep's report.
func runFig(t testing.TB, id string, o Options) (*Table, *Report) {
	t.Helper()
	rep, err := RunSweep(Request{Figs: []string{id}, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) == 0 {
		return nil, rep
	}
	if fr := rep.Figures[0]; fr.Err != "" {
		t.Fatalf("%s panicked: %s", id, fr.Err)
	}
	return rep.Figures[0].Table, rep
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"ext1", "ext2", "ext3", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig2", "fig3", "fig4", "fig8", "fig9"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiment count = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Error("ByID(fig8) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestFig1Shape(t *testing.T) {
	tab, _ := runFig(t, "fig1", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig1 rows = %d, want 4", len(tab.Rows))
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("fig1 columns = %d, want 3", len(tab.Columns))
	}
	// The baseline row at 256KB must be ~1.0 by construction.
	for _, r := range tab.Rows {
		if r.Label == "I-LRU" {
			if r.Values[0] < 0.99 || r.Values[0] > 1.01 {
				t.Errorf("I-LRU@256KB speedup = %v, want 1.0", r.Values[0])
			}
		}
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestFig2ZIVFreeInclusionVictims(t *testing.T) {
	// Not fig2 itself, but the core claim: ZIV rows in fig8's matrix must
	// have zero inclusion victims. Run the ZIV spec directly.
	o := tinyOptions()
	s := spec{label: "ziv", l2: kb256, mode: 0, pol: 0, scheme: 4 /* SchemeZIV */, prop: 1 /* NotInPrC */}
	r := makeRunner(o)
	mixes := sweepMatrix(r, []spec{s})
	for _, mix := range mixes {
		res := r.get("ziv", mix.Name)
		if res.TotalIncl != 0 {
			t.Fatalf("ZIV produced %d inclusion victims on %s", res.TotalIncl, mix.Name)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "row1", Values: []float64{1.5, 2.5}}},
		Notes:   []string{"a note"},
	}
	txt := tab.Format()
	if !strings.Contains(txt, "test") || !strings.Contains(txt, "row1") || !strings.Contains(txt, "1.5") || !strings.Contains(txt, "a note") {
		t.Errorf("Format output missing content:\n%s", txt)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "label,a,b\n") || !strings.Contains(csv, "row1,1.5,2.5") {
		t.Errorf("CSV output wrong:\n%s", csv)
	}
}

func TestOptionsMixes(t *testing.T) {
	o := tinyOptions()
	mixes := o.mixes()
	if len(mixes) != o.HomoMixes+o.HeteroMixes {
		t.Fatalf("mixes = %d, want %d", len(mixes), o.HomoMixes+o.HeteroMixes)
	}
	o.HomoMixes = 100 // more than available: clamps to all 36
	if got := len(o.mixes()); got != 36+o.HeteroMixes {
		t.Fatalf("clamped mixes = %d, want %d", got, 36+o.HeteroMixes)
	}
}

func TestPaperOptions(t *testing.T) {
	o := PaperOptions()
	if o.Scale != 1 || o.HeteroMixes != 36 || o.HomoMixes != 36 || o.TPCECores != 128 {
		t.Errorf("PaperOptions = %+v", o)
	}
}

func TestExt1OracleRuns(t *testing.T) {
	tab, _ := runFig(t, "ext1", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("ext1 rows = %d, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestExt3SRRIPZeroVictims(t *testing.T) {
	tab, _ := runFig(t, "ext3", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("ext3 rows = %d, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestExt2AblationSkew(t *testing.T) {
	tab, _ := runFig(t, "ext2", tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("ext2 rows = %d, want 2", len(tab.Rows))
	}
	var rr, lowest float64
	for _, r := range tab.Rows {
		switch r.Label {
		case "ZIV-RoundRobin":
			rr = r.Values[1]
		case "ZIV-LowestIndex":
			lowest = r.Values[1]
		}
	}
	if rr == 0 || lowest == 0 {
		t.Skip("no relocations at this scale")
	}
	if lowest < rr {
		t.Errorf("lowest-index skew (%v) below round-robin (%v): fairness ablation inverted", lowest, rr)
	}
}

func TestFig14Shape(t *testing.T) {
	tab, _ := runFig(t, "fig14", tinyOptions())
	if len(tab.Rows) != 13 {
		t.Fatalf("fig14 rows = %d, want 13", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 1 || r.Values[0] <= 0 {
			t.Errorf("row %s: bad values %v", r.Label, r.Values)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tab, _ := runFig(t, "fig15", tinyOptions())
	if len(tab.Rows) != 6 { // 3 families x {MESI, ZeroDEV}
		t.Fatalf("fig15 rows = %d, want 6", len(tab.Rows))
	}
	if len(tab.Columns) != 4 {
		t.Fatalf("fig15 columns = %d, want 4 directory sizes", len(tab.Columns))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup", r.Label)
			}
		}
	}
}

func TestFig16And17Shape(t *testing.T) {
	rep, err := RunSweep(Request{Figs: []string{"fig16", "fig17"}, Options: tinyOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range rep.Figures {
		tab := fr.Table
		if fr.Err != "" {
			t.Fatalf("%s panicked: %s", fr.ID, fr.Err)
		}
		if len(tab.Rows) != 5 {
			t.Fatalf("%s rows = %d, want 5 MT workloads", fr.ID, len(tab.Rows))
		}
		if len(tab.Columns) != 6 {
			t.Fatalf("%s columns = %d, want 6 designs", fr.ID, len(tab.Columns))
		}
		for _, r := range tab.Rows {
			for i, v := range r.Values {
				if v <= 0 {
					t.Errorf("%s %s/%s: non-positive ratio %v", fr.ID, r.Label, tab.Columns[i], v)
				}
			}
		}
	}
}

// TestMTFiguresRunOnRunner: Figs. 16/17 run on the sweep's job runner.
// Their shared I-LRU simulations (Fig. 16's I-LRU column and both
// baselines) run once, the report counts every simulation and its
// references, and an injected panic in one multi-threaded job is retried
// like any other job's instead of aborting the figure.
func TestMTFiguresRunOnRunner(t *testing.T) {
	o := tinyOptions()
	figs := []string{"fig16", "fig17"}
	clean, err := RunSweep(Request{Figs: figs, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	names := workload.MTNames()
	const configs = 12 // 6 LRU + 6 Hawkeye designs; I-LRU is also the baseline
	var wantRefs uint64
	for _, name := range names {
		cores := o.Cores
		if name == "tpce" {
			cores = o.TPCECores
		}
		wantRefs += configs * uint64(cores) * uint64(o.Warmup+o.Measure)
	}
	if got, want := clean.Status.Completed, configs*len(names); got != want {
		t.Errorf("Completed = %d, want %d (%d workloads x %d configurations)", got, want, len(names), configs)
	}
	if clean.SimulatedRefs != wantRefs {
		t.Errorf("SimulatedRefs = %d, want %d", clean.SimulatedRefs, wantRefs)
	}

	// A fault on every attempt fails that one job; the figures still render.
	failing := o
	failing.FaultSpec = "panic:NI-LRU|tpce"
	failed, err := RunSweep(Request{Figs: figs, Options: failing})
	if err != nil {
		t.Fatal(err)
	}
	if f := failed.Status.Failed; len(f) != 1 || f[0].CfgLabel != "NI-LRU" || f[0].Mix != "tpce" || failed.Panics() != 0 {
		t.Fatalf("faulted sweep: failed %v, %d figure panics; want only NI-LRU on tpce failed", f, failed.Panics())
	}

	faulted := o
	faulted.FaultSpec = "panic:NI-LRU|tpce@1"
	faulted.MaxAttempts = 2
	got, err := RunSweep(Request{Figs: figs, Options: faulted})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Status.Failed) != 0 || got.Panics() != 0 {
		t.Fatalf("retried sweep: failed %v, %d figure panics; want none", got.Status.Failed, got.Panics())
	}
	for i := range clean.Figures {
		if a, b := clean.Figures[i].Table.Format(), got.Figures[i].Table.Format(); a != b {
			t.Errorf("%s differs after a retried fault:\nclean:\n%s\nretried:\n%s", clean.Figures[i].ID, a, b)
		}
	}
}

func TestFig18CDF(t *testing.T) {
	tab, _ := runFig(t, "fig18", tinyOptions())
	if len(tab.Columns) != 3 {
		t.Fatalf("fig18 columns = %d, want 3 designs", len(tab.Columns))
	}
	// Each column must be a monotone CDF ending at ~1 (if any relocations).
	for c := 0; c < 3; c++ {
		prev := 0.0
		for _, r := range tab.Rows {
			v := r.Values[c]
			if v < prev-1e-9 {
				t.Fatalf("fig18 column %d not monotone at %s", c, r.Label)
			}
			prev = v
		}
		if len(tab.Rows) > 0 {
			last := tab.Rows[len(tab.Rows)-1].Values[c]
			if last != 0 && (last < 0.999 || last > 1.001) {
				t.Errorf("fig18 column %d CDF ends at %v", c, last)
			}
		}
	}
}

func TestFig19EPIGrowsWithL2(t *testing.T) {
	tab, _ := runFig(t, "fig19", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig19 rows = %d, want 4 designs", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v < 0 {
				t.Errorf("negative EPI in row %s", r.Label)
			}
		}
	}
}

func TestFig9PerMix(t *testing.T) {
	o := tinyOptions()
	tab, _ := runFig(t, "fig9", o)
	// One row per mix plus the geomean row.
	if len(tab.Rows) != o.HomoMixes+o.HeteroMixes+1 {
		t.Fatalf("fig9 rows = %d, want %d", len(tab.Rows), o.HomoMixes+o.HeteroMixes+1)
	}
	if tab.Rows[len(tab.Rows)-1].Label != "geomean" {
		t.Error("fig9 missing geomean row")
	}
}

// TestRunnerCacheSharing: the experiments of one sweep share its runner,
// so Figs. 3 and 4, which run the same matrix, simulate it once.
func TestRunnerCacheSharing(t *testing.T) {
	o := tinyOptions()
	rep, err := RunSweep(Request{Figs: []string{"fig3", "fig4"}, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	// Five families x three L2 sizes; the I-LRU-256KB baseline is one of them.
	want := 5 * len(l2Sweep) * len(o.mixes())
	if rep.Status.Completed != want {
		t.Errorf("Completed = %d, want %d (one simulation per distinct job)", rep.Status.Completed, want)
	}
	oneJob := uint64(o.Cores) * uint64(o.Warmup+o.Measure)
	if rep.SimulatedRefs != uint64(want)*oneJob {
		t.Errorf("SimulatedRefs = %d, want %d", rep.SimulatedRefs, uint64(want)*oneJob)
	}
}
