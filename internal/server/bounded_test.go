package server

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"zivsim/internal/harness"
)

// awaitFeedClosed blocks until a job's event feed closes. The executor
// closes it last, after persisting the job and removing its checkpoint,
// so the job's on-disk state is final once this returns.
func awaitFeedClosed(t *testing.T, s *Server, id string) {
	t.Helper()
	j := s.lookup(id)
	if j == nil {
		t.Fatalf("job %s unknown", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for j.events.wait(ctx, j.events.len()) {
	}
	if ctx.Err() != nil {
		t.Fatalf("job %s: event feed never closed", id)
	}
}

// journalEntries counts the job lines of a checkpoint journal (every
// line after the header).
func journalEntries(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("checkpoint journal: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	n := -1
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSameOptionsSweepsJournalOwnMatrix: two jobs under the same options
// (fig1, then fig8) each journal to their own checkpoint and count only
// their own matrix; the second adopts what the first simulated from the
// disk cache. fig8's job record is made unpersistable (a directory sits
// where it would be renamed to), so its checkpoint must survive the
// failed persist, while fig1's persisted job drops its checkpoint.
func TestSameOptionsSweepsJournalOwnMatrix(t *testing.T) {
	payload := tinyPayload()
	direct, err := harness.RunSweep(harness.Request{Figs: []string{"fig8"}, Options: payload.Options()})
	if err != nil {
		t.Fatalf("direct RunSweep: %v", err)
	}
	want := direct.Status.Completed

	stateDir := t.TempDir()
	fig8ID, err := harness.Request{Figs: []string{"fig8"}, Options: payload.Options()}.IdentityKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stateDir, "jobs", fig8ID+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{StateDir: stateDir})
	startExecutors(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, _ := post(t, ts, Submission{Figs: []string{"fig1"}, Options: payload})
	awaitFeedClosed(t, s, first.ID)
	second, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: payload})
	if code != http.StatusAccepted || second.ID != fig8ID {
		t.Fatalf("fig8 submit = %d id %s, want 202 id %s", code, second.ID, fig8ID)
	}
	awaitFeedClosed(t, s, second.ID)

	fin, _ := getJob(t, ts, second.ID)
	if fin.State != StateDone || fin.Status == nil {
		t.Fatalf("fig8 job = %s (%s)", fin.State, fin.Error)
	}
	st := fin.Status
	if st.Completed != want {
		t.Errorf("fig8 completed = %d, want its own matrix of %d", st.Completed, want)
	}
	if st.CacheHits == 0 {
		t.Errorf("fig8 adopted nothing from fig1's cache entries: %+v", st)
	}
	ckpt := s.checkpointPath(second.ID)
	if got, sims := journalEntries(t, ckpt), st.Completed-st.CacheHits-st.CheckpointHits; got != sims {
		t.Errorf("fig8 journal holds %d entries, want the %d jobs it simulated", got, sims)
	}
	if _, err := os.Stat(s.checkpointPath(first.ID)); !os.IsNotExist(err) {
		t.Errorf("fig1's checkpoint survived its persisted done record (stat err %v)", err)
	}
}

// openFDs counts this process's open file descriptors; ok is false
// where /proc/self/fd does not exist.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// boundedIdentities is how many distinct identities the boundedness
// test serves after its warm-up sweep.
const boundedIdentities = 40

// maxHeapPerIdentity bounds the heap a served identity may retain: the
// server keeps each job's status, tables and event history (about 30 KB
// for a tiny fig1 sweep) and nothing of the harness. Keeping the
// harness runner, its journal handle and the journal's copy of every
// Result costs about 100 KB.
const maxHeapPerIdentity = 60 << 10

// TestServedIdentitiesHoldNoHarnessState: a server that has run many
// distinct identities holds no more open files than after its first
// sweep, no harness runner or sweep lock, no checkpoint of a done job,
// and only the documented per-job heap.
func TestServedIdentitiesHoldNoHarnessState(t *testing.T) {
	if _, ok := openFDs(); !ok {
		t.Skip("/proc/self/fd not available")
	}
	stateDir := t.TempDir()
	s := newTestServer(t, Config{StateDir: stateDir, Parallelism: 1})
	startExecutors(t, s)
	sweep := func(seed uint64) {
		p := tinyPayload()
		p.Seed = &seed
		st, outcome, err := s.submit("bounded", Submission{Figs: []string{"fig1"}, Options: p})
		if err != nil || outcome != submitNew {
			t.Fatalf("submit seed %d: outcome %d, err %v", seed, outcome, err)
		}
		awaitFeedClosed(t, s, st.ID)
		if got := s.snapshot(s.lookup(st.ID), false); got.State != StateDone {
			t.Fatalf("seed %d: state %s (%s)", seed, got.State, got.Error)
		}
	}

	sweep(1) // warm-up: lazily opened runtime descriptors, first-use allocations
	fd0, _ := openFDs()
	heap0 := liveHeap()
	for i := 0; i < boundedIdentities; i++ {
		sweep(uint64(100 + i))
	}
	fd1, _ := openFDs()
	heap1 := liveHeap()

	if fd1 != fd0 {
		t.Errorf("open file descriptors: %d after the warm-up sweep, %d after %d more identities", fd0, fd1, boundedIdentities)
	}
	if memo, locks := harness.LiveState(); memo != 0 || locks != 0 {
		t.Errorf("harness state survives the sweeps: %d memoized runners, %d sweep locks", memo, locks)
	}
	left, err := os.ReadDir(filepath.Join(stateDir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d checkpoints survive their done jobs", len(left))
	}
	var perIdentity int64
	if heap1 > heap0 {
		perIdentity = int64(heap1-heap0) / boundedIdentities
	}
	t.Logf("heap retained per identity: %d bytes", perIdentity)
	if perIdentity > maxHeapPerIdentity {
		t.Errorf("heap grows %d bytes per identity, want at most %d", perIdentity, maxHeapPerIdentity)
	}
}
