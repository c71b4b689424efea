// Sweep checkpointing. A checkpoint file (conventionally .zivcheckpoint)
// is an append-only journal of completed jobs: one header line naming the
// simulator revision and the hash of the normalized Options, then one
// JSON line per finished (config, mix) Result, appended as jobs complete.
// Because entries are keyed by the same content hash as the disk cache
// (diskKey: cacheVersion + normalized Options + config + mix + baseL2), a
// resumed run adopts exactly the jobs whose full deterministic identity
// matches, and a checkpoint taken under different options is ignored
// wholesale via the header.
//
// The journal tolerates the crashes it exists for: appends are one
// write() of one line, and a torn final line (process killed mid-append)
// is detected and dropped on load — every earlier entry remains usable.
// Unlike the disk cache, which persists indefinitely, a checkpoint
// describes one sweep: it is truncated at the start of every run that is
// not resuming.
package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// checkpointHeader is the first line of the journal. A mismatch in either
// field invalidates every entry that follows.
type checkpointHeader struct {
	Version string `json:"version"`
	Options string `json:"options"`
}

// checkpointEntry is one completed job.
type checkpointEntry struct {
	Key      string `json:"key"`
	CfgLabel string `json:"cfg"`
	Mix      string `json:"mix"`
	Result   Result `json:"result"`
}

// checkpoint is an open journal: the loaded entries of a resumed sweep
// plus the append handle for the current one.
type checkpoint struct {
	mu sync.Mutex
	// f is nil once the journal is closed; later records are dropped.
	//ziv:guards(mu)
	f *os.File
	// entries holds only what a resume loaded: the jobs this sweep
	// journals are already in its runner's results, so record never
	// keeps a second copy.
	//ziv:guards(mu)
	entries map[string]Result
	// broken records a failed write; appending stops (journaling is
	// best-effort).
	//ziv:guards(mu)
	broken bool
}

// checkpointOptionsHash fingerprints the result-affecting option set, the
// same normalization the disk-cache key uses.
func (o Options) checkpointOptionsHash() string {
	data, err := json.Marshal(struct {
		Version string
		Options Options
	}{cacheVersion, o.normalized()})
	if err != nil {
		panic(fmt.Sprintf("harness: checkpoint hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IdentityHash fingerprints the result-affecting option set (the
// checkpoint header hash). cmd/zivsim stamps it into the telemetry run
// ledger's header so a ledger can be matched to the checkpoint and
// cache entries of the sweep that produced it.
func (o Options) IdentityHash() string { return o.checkpointOptionsHash() }

// openCheckpoint opens (resume) or creates (fresh) the journal at path.
// On resume, entries from a matching header are loaded and the file is
// extended in place; a missing, corrupt or mismatched journal silently
// degrades to a fresh one — the checkpoint is an accelerator, never a
// correctness dependency.
func openCheckpoint(path string, resume bool, optionsHash string) (*checkpoint, error) {
	c := &checkpoint{entries: map[string]Result{}}
	if resume {
		c.load(path, optionsHash)
	}
	flags := os.O_WRONLY | os.O_CREATE
	if len(c.entries) > 0 {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	c.f = f
	if len(c.entries) == 0 {
		hdr, err := json.Marshal(checkpointHeader{Version: cacheVersion, Options: optionsHash})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// load reads a prior journal, keeping its entries only when the header
// matches this sweep's identity. Unparsable lines — a torn tail from an
// interrupted append, or stray corruption — are dropped individually.
func (c *checkpoint) load(path string, optionsHash string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		return
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil ||
		hdr.Version != cacheVersion || hdr.Options != optionsHash {
		return
	}
	for sc.Scan() {
		var e checkpointEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Key == "" {
			continue
		}
		c.entries[e.Key] = e.Result
	}
}

// lookup returns the checkpointed Result for a job key, if present.
func (c *checkpoint) lookup(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	return res, ok
}

// record appends one completed job and reports whether it was written.
// The whole entry is a single write of a single line, so a crash can
// tear at most the final line — which load drops. Failures disable
// further journaling but never fail the sweep; a record after close (a
// job abandoned by an expired drain finishing late) writes nothing.
func (c *checkpoint) record(key, cfgLabel, mix string, res Result) bool {
	data, err := json.Marshal(checkpointEntry{Key: key, CfgLabel: cfgLabel, Mix: mix, Result: res})
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken || c.f == nil {
		return false
	}
	if _, err := c.f.Write(append(data, '\n')); err != nil {
		c.broken = true
		fmt.Fprintf(os.Stderr, "harness: checkpoint write failed, journaling disabled: %v\n", err)
		return false
	}
	return true
}

// close releases the journal's file handle.
func (c *checkpoint) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}
