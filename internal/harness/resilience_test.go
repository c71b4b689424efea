package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The resilience suite proves the ISSUE acceptance criteria end to end:
// a single panicking job fails that job only; an interrupted-then-resumed
// sweep (via deterministic fault injection standing in for SIGINT)
// produces byte-identical figure tables to an uninterrupted run; and the
// checkpoint journal tolerates the crashes it exists for.

// faultedJob is the one fig1 job every fault in this file targets. Fault
// substrings match any key containing them, so the NI- label is used: it
// is not a substring of any other fig1 key (unlike "I-LRU-256KB", which
// "NI-LRU-256KB|..." also contains).
const faultedJob = "NI-LRU-256KB|hetero.00"

// resilienceOptions returns fast, serial options. Parallelism 1 makes the
// dispatch order — and therefore drain-after interruption points —
// deterministic.
func resilienceOptions() Options {
	o := smallOptions()
	o.Parallelism = 1
	return o
}

// fig1Table runs fig1 in a sweep of its own under o and renders it (""
// when a drain cut the sweep short); the report carries the sweep status.
func fig1Table(t *testing.T, o Options) (string, *Report) {
	t.Helper()
	tab, rep := runFig(t, "fig1", o)
	if tab == nil {
		return "", rep
	}
	return tab.Format(), rep
}

// cleanFig1 memoizes one uninterrupted fig1 run — the byte-identity
// reference every resilience test compares against.
var cleanFig1 struct {
	once  sync.Once
	table string
	jobs  int
}

func cleanFig1Run(t *testing.T) (table string, jobs int) {
	t.Helper()
	cleanFig1.once.Do(func() {
		var rep *Report
		cleanFig1.table, rep = fig1Table(t, resilienceOptions())
		cleanFig1.jobs = rep.Status.Completed
	})
	if cleanFig1.jobs == 0 {
		t.Fatal("clean fig1 run completed no jobs")
	}
	return cleanFig1.table, cleanFig1.jobs
}

// TestPanicFailsOnlyThatJob: a panic inside one simulation must be
// recovered, recorded as a FailedJob with its stack, and leave every
// other job's result intact.
func TestPanicFailsOnlyThatJob(t *testing.T) {
	_, total := cleanFig1Run(t)

	o := resilienceOptions()
	o.FaultSpec = "panic:" + faultedJob
	_, rep := fig1Table(t, o) // must not panic: the failed cell renders as zeros

	st := rep.Status
	if len(st.Failed) != 1 {
		t.Fatalf("got %d failed jobs, want exactly 1: %v", len(st.Failed), st.Failed)
	}
	fj := st.Failed[0]
	if fj.CfgLabel != "NI-LRU-256KB" || fj.Mix != "hetero.00" {
		t.Errorf("failed job is %s on %s, want the faulted job", fj.CfgLabel, fj.Mix)
	}
	if fj.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (MaxAttempts unset)", fj.Attempts)
	}
	if !strings.Contains(fj.Err, "injected panic") {
		t.Errorf("Err = %q, want the recovered panic value", fj.Err)
	}
	if !strings.Contains(fj.Stack, "attemptJob") {
		t.Errorf("Stack does not show the failing attempt:\n%s", fj.Stack)
	}
	if st.Completed != total-1 {
		t.Errorf("Completed = %d, want %d (every job but the panicking one)", st.Completed, total-1)
	}
	if len(st.Skipped) != 0 {
		t.Errorf("Skipped = %v, want none (no drain was requested)", st.Skipped)
	}
}

// TestRetryRecoversTransientFault: a fault confined to attempt 1 must be
// invisible under MaxAttempts 2 — same table bytes as a clean run, no
// FailedJob.
func TestRetryRecoversTransientFault(t *testing.T) {
	clean, total := cleanFig1Run(t)

	o := resilienceOptions()
	o.FaultSpec = "panic:" + faultedJob + "@1"
	o.MaxAttempts = 2
	got, rep := fig1Table(t, o)

	if got != clean {
		t.Errorf("retried run differs from clean run:\nclean:\n%s\nretried:\n%s", clean, got)
	}
	st := rep.Status
	if len(st.Failed) != 0 {
		t.Errorf("Failed = %v, want none (attempt 2 succeeds)", st.Failed)
	}
	if st.Completed != total {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
}

// TestDrainResumeByteIdentical: interrupt a checkpointed sweep with the
// drain-after fault (the deterministic stand-in for SIGINT), then resume
// it in a fresh runner — the resumed figure must be byte-identical to an
// uninterrupted run, with the finished jobs adopted from the journal.
func TestDrainResumeByteIdentical(t *testing.T) {
	clean, total := cleanFig1Run(t)
	ckpt := filepath.Join(t.TempDir(), "ck")

	o := resilienceOptions()
	o.CheckpointFile = ckpt
	o.FaultSpec = "drain-after:3"
	o.Drain = NewDrain()
	_, rep := fig1Table(t, o) // partial: the drain parks the rest of the matrix

	if !o.Drain.Requested() {
		t.Fatal("drain-after fault did not request a drain")
	}
	st := rep.Status
	if st.Completed != 3 {
		t.Fatalf("interrupted run completed %d jobs, want 3 (Parallelism 1)", st.Completed)
	}
	if len(st.Skipped) != total-3 {
		t.Fatalf("interrupted run skipped %d jobs, want %d", len(st.Skipped), total-3)
	}

	r := resilienceOptions()
	r.CheckpointFile = ckpt
	r.Resume = true
	got, rrep := fig1Table(t, r)

	if got != clean {
		t.Errorf("resumed run differs from uninterrupted run:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
	rst := rrep.Status
	if rst.CheckpointHits != 3 {
		t.Errorf("CheckpointHits = %d, want 3 (the jobs finished before the drain)", rst.CheckpointHits)
	}
	if rst.Completed != total || len(rst.Skipped) != 0 || len(rst.Failed) != 0 {
		t.Errorf("resumed status = %d completed, %d skipped, %d failed; want %d/0/0",
			rst.Completed, len(rst.Skipped), len(rst.Failed), total)
	}
}

// TestResumeRetriesFailedJob: a failed job is never journaled, so a
// resumed sweep re-attempts exactly it — and only it — then matches the
// clean run byte for byte.
func TestResumeRetriesFailedJob(t *testing.T) {
	clean, total := cleanFig1Run(t)
	ckpt := filepath.Join(t.TempDir(), "ck")

	o := resilienceOptions()
	o.CheckpointFile = ckpt
	o.FaultSpec = "panic:" + faultedJob
	if _, rep := fig1Table(t, o); len(rep.Status.Failed) != 1 || rep.Status.Completed != total-1 {
		t.Fatalf("faulted run: %d completed, %d failed; want %d completed, 1 failed",
			rep.Status.Completed, len(rep.Status.Failed), total-1)
	}

	r := resilienceOptions()
	r.CheckpointFile = ckpt
	r.Resume = true
	got, rrep := fig1Table(t, r)

	if got != clean {
		t.Errorf("resumed run differs from clean run:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
	// Exactly one real simulation: the formerly failed job.
	oneJob := uint64(r.Cores) * uint64(r.Warmup+r.Measure)
	if simulated := rrep.SimulatedRefs; simulated != oneJob {
		t.Errorf("resume simulated %d refs, want %d (one job)", simulated, oneJob)
	}
	rst := rrep.Status
	if rst.CheckpointHits != total-1 || len(rst.Failed) != 0 {
		t.Errorf("resumed status: %d checkpoint hits, %d failed; want %d hits, 0 failed",
			rst.CheckpointHits, len(rst.Failed), total-1)
	}
}

// TestCorruptCacheEntryRecomputed: a disk-cache entry torn after being
// stored (the corrupt: fault) must read as a miss on the next run, and
// the recompute must restore byte-identical output.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	clean, total := cleanFig1Run(t)

	o := resilienceOptions()
	o.CacheDir = t.TempDir()
	o.FaultSpec = "corrupt:" + faultedJob
	if got, _ := fig1Table(t, o); got != clean {
		t.Errorf("corruption happens after the result is recorded; table must match clean run:\n%s", got)
	}

	r := o
	r.FaultSpec = ""
	got, rep := fig1Table(t, r)

	if got != clean {
		t.Errorf("rerun over corrupted cache differs from clean run:\nclean:\n%s\nrerun:\n%s", clean, got)
	}
	st := rep.Status
	if st.CacheHits != total-1 {
		t.Errorf("CacheHits = %d, want %d (every entry but the corrupted one)", st.CacheHits, total-1)
	}
	oneJob := uint64(r.Cores) * uint64(r.Warmup+r.Measure)
	if simulated := rep.SimulatedRefs; simulated != oneJob {
		t.Errorf("rerun simulated %d refs, want %d (only the corrupted entry)", simulated, oneJob)
	}
}

// TestCheckpointTornTailTolerated: a journal whose final append was torn
// by a crash must still resume every complete entry.
func TestCheckpointTornTailTolerated(t *testing.T) {
	clean, total := cleanFig1Run(t)
	ckpt := filepath.Join(t.TempDir(), "ck")

	o := resilienceOptions()
	o.CheckpointFile = ckpt
	fig1Table(t, o) // the sweep closes its journal handle on return

	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"deadbeef","cfg":"torn-by-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := resilienceOptions()
	r.CheckpointFile = ckpt
	r.Resume = true
	got, rep := fig1Table(t, r)

	if got != clean {
		t.Errorf("resume over torn journal differs from clean run:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
	if st := rep.Status; st.CheckpointHits != total {
		t.Errorf("CheckpointHits = %d, want %d (the torn line is dropped, complete entries kept)",
			st.CheckpointHits, total)
	}
	if simulated := rep.SimulatedRefs; simulated != 0 {
		t.Errorf("resume simulated %d refs, want 0", simulated)
	}
}

// TestCheckpointOptionsMismatchIgnored: a journal taken under different
// result-affecting options must be ignored wholesale, while
// result-neutral options share the same identity.
func TestCheckpointOptionsMismatchIgnored(t *testing.T) {
	a := resilienceOptions()

	par := a
	par.Parallelism = 7
	par.CheckpointFile = "/elsewhere"
	if a.checkpointOptionsHash() != par.checkpointOptionsHash() {
		t.Error("result-neutral options changed the checkpoint identity")
	}
	b := a
	b.Seed++
	if a.checkpointOptionsHash() == b.checkpointOptionsHash() {
		t.Fatal("changing Seed did not change the checkpoint identity")
	}

	path := filepath.Join(t.TempDir(), "ck")
	ck, err := openCheckpoint(path, false, a.checkpointOptionsHash())
	if err != nil {
		t.Fatal(err)
	}
	ck.record("k1", "cfg", "mix", Result{})
	ck.close()

	same, err := openCheckpoint(path, true, a.checkpointOptionsHash())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := same.lookup("k1"); !ok {
		t.Error("matching-options resume lost the journaled entry")
	}
	same.close()

	other, err := openCheckpoint(path, true, b.checkpointOptionsHash())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.lookup("k1"); ok {
		t.Error("resume adopted an entry journaled under different options")
	}
	other.close()
}

// TestParallelFaultedSweep drives the whole recovery machinery — fault
// injection, retry, checkpoint journaling, cache adoption and progress
// rendering — at elevated parallelism. The rest of the resilience suite
// stays serial for deterministic interruption points; this test exists
// for the race detector: eight workers recording checkpoint entries and
// advancing shared counters concurrently must still produce the same
// table bytes as a clean serial run.
func TestParallelFaultedSweep(t *testing.T) {
	clean, total := cleanFig1Run(t)

	var buf bytes.Buffer
	o := resilienceOptions()
	o.Parallelism = 8
	o.FaultSpec = "panic:" + faultedJob + "@1"
	o.MaxAttempts = 2
	o.CheckpointFile = filepath.Join(t.TempDir(), "ck")
	o.Progress = NewProgress(&buf, func() time.Time { return time.Unix(1000, 0) })
	got, rep := fig1Table(t, o)

	if got != clean {
		t.Errorf("parallel faulted run differs from clean serial run:\nclean:\n%s\nparallel:\n%s", clean, got)
	}
	st := rep.Status
	if len(st.Failed) != 0 {
		t.Errorf("Failed = %v, want none (attempt 2 succeeds)", st.Failed)
	}
	if st.Completed != total {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
	if !strings.Contains(buf.String(), "runs") {
		t.Error("progress reporter never rendered")
	}
}

// TestDrainExpireAbandonsInFlightJob: without a checkpoint journal, an
// expired drain must still stop waiting for a wedged in-flight job and
// report it skipped, instead of hanging the sweep forever.
// TestAbandonedJobNeverWritesReleasedJournal covers the journaled sweep.
func TestDrainExpireAbandonsInFlightJob(t *testing.T) {
	o := resilienceOptions()
	o.CacheDir = t.TempDir()
	o.FaultSpec = "hang:" + faultedJob
	o.Drain = NewDrain()
	gate := holdFaultedJob(t)

	done := make(chan *Report, 1)
	go func() {
		rep, _ := RunSweep(Request{Figs: []string{"fig1"}, Options: o})
		done <- rep
	}()
	<-gate.arrived // the faulted job is now wedged in flight
	o.Drain.Request()
	o.Drain.Expire()
	rep := <-done // the sweep returned without waiting for the wedged job
	cached := cacheEntries(t, o.CacheDir)

	// Release the abandoned job and wait for its cache entry, so its late
	// simulation cannot run on into a later test.
	close(gate.release)
	deadline := time.Now().Add(30 * time.Second)
	for cacheEntries(t, o.CacheDir) == cached {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned job never finished")
		}
		time.Sleep(time.Millisecond)
	}

	if !rep.Drained {
		t.Error("expired drain did not mark the report drained")
	}
	if !slices.Contains(rep.Status.Skipped, faultedJob) {
		t.Errorf("Skipped = %v, want it to include the abandoned job %q", rep.Status.Skipped, faultedJob)
	}
}

// TestParseFaultSpec pins the grammar's accept/reject behavior.
func TestParseFaultSpec(t *testing.T) {
	valid := []string{
		"",
		"panic:I-LRU",
		"panic:I-LRU@2",
		"corrupt:hetero.00; hang:homo",
		"drain-after:5",
		"panic:a@1;corrupt:b;drain-after:1",
	}
	for _, s := range valid {
		if err := ParseFaultSpec(s); err != nil {
			t.Errorf("ParseFaultSpec(%q) = %v, want nil", s, err)
		}
	}
	invalid := []string{
		"panic",             // no argument
		"panic:",            // empty substring
		"panic:x@zero",      // non-numeric attempt count
		"panic:x@0",         // attempt count must be >= 1
		"corrupt:",          // empty substring
		"drain-after:x",     // non-numeric job count
		"drain-after:-1",    // negative job count
		"explode:x",         // unknown directive
		"panic:x;explode:y", // one bad directive rejects the spec
	}
	for _, s := range invalid {
		if err := ParseFaultSpec(s); err == nil {
			t.Errorf("ParseFaultSpec(%q) = nil, want an error", s)
		}
	}
}
