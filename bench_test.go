// Benchmarks regenerating every table and figure of the paper's evaluation.
// One Benchmark per figure (Figs. 1-4 motivation, 8-19 results) runs the
// corresponding harness experiment at a reduced scale and reports its
// headline numbers as custom metrics; `go test -bench=Fig -benchmem` prints
// the full set. For the publication-shaped tables themselves, run
// `go run ./cmd/zivsim -fig all` (or -paper for full fidelity).
//
// Micro-benchmarks of the hot structures (PV nextRS, LLC fill paths, the
// policies) follow the figure benches.
package zivsim

import (
	"fmt"
	"testing"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/harness"
	"zivsim/internal/hierarchy"
	"zivsim/internal/policy"
	"zivsim/internal/trace"
)

// benchOptions keeps figure benches to a few seconds each.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 32
	o.HeteroMixes = 2
	o.HomoMixes = 2
	o.Warmup = 5_000
	o.Measure = 20_000
	o.TPCECores = 16
	return o
}

// benchFigure runs one harness experiment per iteration and reports the
// first row's values as metrics. The process-wide result memo is cleared
// before every iteration: without that, iteration 2 onward replays cached
// results and the bench reports the memo's speed, not the simulator's.
// Simulated references per wall-clock second is the headline metric.
func benchFigure(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	o := benchOptions()
	refsBefore := harness.SimulatedRefs()
	var tab *harness.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.ResetMemo()
		tab = e.Run(o)
	}
	b.StopTimer()
	refs := harness.SimulatedRefs() - refsBefore
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
	if tab == nil || len(tab.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	perMix := id == "fig9" || id == "fig12"
	for _, row := range tab.Rows {
		for j, v := range row.Values {
			if j < len(tab.Columns) {
				b.ReportMetric(v, fmt.Sprintf("%s/%s", row.Label, tab.Columns[j]))
			}
		}
		if perMix {
			break // one sample row; the geomean appears in the figure output
		}
	}
}

func BenchmarkFig1(b *testing.B)  { benchFigure(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchFigure(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19") }

// BenchmarkSimulatorThroughput measures raw simulated references per second
// on a ZIV machine — the end-to-end hot path.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := hierarchy.DefaultConfig(8, 256<<10, 32)
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropLikelyDead
	refs := 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gens := make([]trace.Generator, 8)
		for c := range gens {
			share := uint64(cfg.LLCBytes / 8)
			gens[c] = trace.Translate(trace.NewCircular((uint64(c)+1)<<40, share*10/8/64, 1, 0.2, 1, uint64(c+1)), 5)
		}
		m := hierarchy.New(cfg, gens, 0, refs)
		m.Run()
	}
	b.ReportMetric(float64(8*refs*b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkPVNextRS measures the Algorithm-1 round-robin selection.
func BenchmarkPVNextRS(b *testing.B) {
	pv := core.NewPV(1024)
	for s := 0; s < 1024; s += 7 {
		pv.Set(s, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pv.NextRS() < 0 {
			b.Fatal("empty PV")
		}
	}
}

// BenchmarkLLCFillZIV measures the ZIV fill path including relocations.
func BenchmarkLLCFillZIV(b *testing.B) {
	benchLLCFillZIV(b, core.PropNotInPrC, func() policy.Policy { return policy.NewLRU() }, false)
}

// BenchmarkLLCFillZIVHawkeye measures the ZIV fill path under Hawkeye with
// the MaxRRPVLikelyDead property: the RRPV and LikelyDead way masks feed
// the property vectors and the relocation-victim search.
func BenchmarkLLCFillZIVHawkeye(b *testing.B) {
	benchLLCFillZIV(b, core.PropMaxRRPVLikelyDead, func() policy.Policy { return policy.NewHawkeye(8) }, true)
}

// benchLLCFillZIV sweeps addresses through a ZIV LLC whose directory tracks
// every third block, so some victims look privately cached. With markDead,
// every fourth untracked block is then marked CHAR-dead.
func benchLLCFillZIV(b *testing.B, prop core.Property, pol func() policy.Policy, markDead bool) {
	dir := directory.New(directory.Config{Slices: 8, SetsPerSlice: 256, Ways: 8})
	llc := core.New(core.Config{
		Banks: 8, SetsPerBank: 64, Ways: 16,
		Scheme: core.SchemeZIV, Property: prop,
		NewPolicy: pol,
	}, dir)
	// Pre-populate the directory so some victims look privately cached.
	for a := uint64(0); a < 4096; a++ {
		if a%3 == 0 {
			dir.Allocate(a, int(a%8), directory.Shared)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) % (1 << 20)
		if e, _, ok := dir.Find(addr); ok && e.Relocated {
			continue // resident at its relocated location
		} else if _, hit := llc.Probe(addr); !hit {
			llc.Fill(addr, int(addr%8), false, ok, policy.Meta{PC: addr % 7 * 4, Addr: addr}, uint64(i))
			if markDead && !ok && addr%4 == 0 {
				llc.MarkNotInPrC(addr, false, true, 0, int(addr%8))
			}
		}
	}
}

// BenchmarkHawkeye measures the Hawkeye policy's per-access cost (OPTgen
// sampling included).
func BenchmarkHawkeye(b *testing.B) {
	p := policy.NewHawkeye(1)
	p.Init(64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := i & 63
		way := i & 15
		p.OnHit(set, way, policy.Meta{PC: uint64(i&255) * 4, Addr: uint64(i % 4096)})
		if i&7 == 0 {
			p.Rank(set)
		}
	}
}

// BenchmarkLRURank measures victim ranking for the default policy.
func BenchmarkLRURank(b *testing.B) {
	p := policy.NewLRU()
	p.Init(64, 16)
	for s := 0; s < 64; s++ {
		for w := 0; w < 16; w++ {
			p.OnFill(s, w, policy.Meta{})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rank(i & 63)
	}
}

func BenchmarkExt1(b *testing.B) { benchFigure(b, "ext1") }
func BenchmarkExt2(b *testing.B) { benchFigure(b, "ext2") }
func BenchmarkExt3(b *testing.B) { benchFigure(b, "ext3") }
