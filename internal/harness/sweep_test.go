package harness

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// sweepLockRefs reports how many sweeps hold or wait on the option set's
// sweep lock (0 when no entry exists).
func sweepLockRefs(o Options) int {
	sweepLocksMu.Lock()
	defer sweepLocksMu.Unlock()
	if lk := sweepLocks[o.normalized()]; lk != nil {
		return lk.refs
	}
	return 0
}

// holdFaultedJob installs a hang gate for the test's duration and
// returns it; the "hang:" fault on faultedJob then wedges that job in
// flight until the test closes gate.release.
func holdFaultedJob(t *testing.T) *hangGate {
	t.Helper()
	gate := &hangGate{arrived: make(chan struct{}), release: make(chan struct{})}
	faultHangGate = gate
	t.Cleanup(func() { faultHangGate = nil })
	return gate
}

// TestSameOptionsSweepsSerialize: a sweep that starts while another
// under the same options is mid-matrix waits for it, then adopts every
// shared simulation from the disk cache instead of recomputing it — each
// job of the matrix is simulated exactly once across both sweeps — and
// neither sweep leaves a lock entry behind.
func TestSameOptionsSweepsSerialize(t *testing.T) {
	o := resilienceOptions()
	o.CacheDir = t.TempDir()
	gate := holdFaultedJob(t)

	first := o
	first.FaultSpec = "hang:" + faultedJob
	repA := make(chan *Report, 1)
	go func() {
		rep, _ := RunSweep(Request{Figs: []string{"fig1"}, Options: first})
		repA <- rep
	}()
	<-gate.arrived // the first sweep holds the lock with a job in flight

	repB := make(chan *Report, 1)
	go func() {
		rep, _ := RunSweep(Request{Figs: []string{"fig1"}, Options: o})
		repB <- rep
	}()
	deadline := time.Now().Add(30 * time.Second)
	for sweepLockRefs(o) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the second sweep never queued on the first one's lock")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	a, b := <-repA, <-repB

	total := a.Status.Completed
	if total == 0 || a.Status.CacheHits != 0 {
		t.Fatalf("first sweep status = %+v, want a cold matrix", a.Status)
	}
	if b.Status.Completed != total || b.Status.CacheHits != total {
		t.Errorf("second sweep status = %+v, want all %d jobs adopted from the cache", b.Status, total)
	}
	oneJob := uint64(o.Cores) * uint64(o.Warmup+o.Measure)
	if got := a.SimulatedRefs + b.SimulatedRefs; got != uint64(total)*oneJob {
		t.Errorf("both sweeps simulated %d refs, want %d (each of the %d jobs once)", got, uint64(total)*oneJob, total)
	}
	if a.Figures[0].Table.Format() != b.Figures[0].Table.Format() {
		t.Error("the cache-adopting sweep rendered a different table")
	}
	if locks := LiveState(); locks != 0 {
		t.Errorf("LiveState after both sweeps = %d sweep locks, want 0", locks)
	}
}

// TestAbandonedJobNeverWritesReleasedJournal: a sweep whose drain expires
// stops waiting for a wedged in-flight job, reports it skipped instead of
// hanging forever, and closes its checkpoint journal on the way out. When
// the abandoned job finishes later it must leave the journal untouched (it
// is recorded nowhere), which also keeps its late record from racing the
// release under the race detector.
func TestAbandonedJobNeverWritesReleasedJournal(t *testing.T) {
	o := resilienceOptions()
	o.CacheDir = t.TempDir()
	o.CheckpointFile = filepath.Join(t.TempDir(), "ck")
	o.FaultSpec = "hang:" + faultedJob
	o.Drain = NewDrain()
	gate := holdFaultedJob(t)

	done := make(chan *Report, 1)
	go func() {
		rep, _ := RunSweep(Request{Figs: []string{"fig1"}, Options: o})
		done <- rep
	}()
	<-gate.arrived
	o.Drain.Request()
	o.Drain.Expire()
	rep := <-done
	if !rep.Drained {
		t.Fatal("expired drain did not mark the report drained")
	}
	if !slices.Contains(rep.Status.Skipped, faultedJob) {
		t.Errorf("Skipped = %v, want it to include the abandoned job %q", rep.Status.Skipped, faultedJob)
	}
	if locks := LiveState(); locks != 0 {
		t.Errorf("%d sweep-lock entries survive the returned sweep", locks)
	}
	journal, err := os.ReadFile(o.CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	cached := cacheEntries(t, o.CacheDir)

	// Let the abandoned job finish. It journals before it stores to the
	// disk cache, so its cache entry appearing means its record is done.
	close(gate.release)
	deadline := time.Now().Add(30 * time.Second)
	for cacheEntries(t, o.CacheDir) == cached {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	after, err := os.ReadFile(o.CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(journal) {
		t.Errorf("the abandoned job wrote to the released journal:\nbefore %d bytes, after %d bytes", len(journal), len(after))
	}
}

// cacheEntries counts the completed entries of a disk-cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}
