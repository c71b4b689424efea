// Persistent result cache. Every simulation is a pure function of
// (simulator version, options, machine config, workload mix), so its Result
// can be reused across processes: cmd/zivsim -cache makes iterating on
// figure output (formatting, new derived columns, partial reruns after a
// crash) free for every simulation already performed.
//
// The cache key hashes the full deterministic input set. Fields that cannot
// change results — Parallelism, CacheDir itself — are normalized out, so a
// parallel run and a serial run share entries. cacheVersion must be bumped
// whenever a change alters simulation output (new statistics, model fixes);
// the golden-determinism tests in golden_test.go are the guard that detects
// such changes.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"zivsim/internal/hierarchy"
	"zivsim/internal/workload"
)

// cacheVersion stamps every cache key with the simulator's behavioral
// revision. Bump it whenever simulation output changes for identical
// options (model fixes, new counters feeding tables, trace changes).
const cacheVersion = "zivsim-results-v1"

// cacheKeyInput is the serialized identity of one simulation.
type cacheKeyInput struct {
	Version  string
	Options  Options // normalized: Parallelism and CacheDir zeroed
	CfgLabel string
	Config   hierarchy.Config
	Mix      workload.Mix
	BaseL2   int
	// MT marks a multi-threaded workload job (Mix names the workload);
	// omitempty keeps every multi-programmed key unchanged.
	MT bool `json:",omitempty"`
}

// diskKey returns the content-derived cache file stem for a job.
func (r *runner) diskKey(j job) string {
	data, err := json.Marshal(cacheKeyInput{
		Version:  cacheVersion,
		Options:  r.opt.normalized(),
		CfgLabel: j.cfgLabel,
		Config:   j.cfg,
		Mix:      j.mix,
		BaseL2:   j.baseL2,
		MT:       j.mt,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: cache key marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cachedResult is the on-disk envelope. Key material is stored alongside
// the payload so `ls` + `cat` can identify entries and stale files from
// older versions are self-describing.
type cachedResult struct {
	Version  string
	CfgLabel string
	Mix      string
	Result   Result
}

// diskLoad returns the cached Result for a job, if present and valid.
// Unreadable or mismatched entries are treated as misses: the cache is an
// accelerator, never a correctness dependency.
func (r *runner) diskLoad(j job) (Result, bool) {
	path := filepath.Join(r.opt.CacheDir, r.diskKey(j)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		return Result{}, false
	}
	var c cachedResult
	if err := json.Unmarshal(data, &c); err != nil || c.Version != cacheVersion {
		return Result{}, false
	}
	return c.Result, true
}

// diskStore persists a job's Result. Writes go through a temp file + rename
// so concurrent workers and interrupted runs never leave a torn entry.
// Failures are silent by design (a read-only cache dir just disables
// persistence).
func (r *runner) diskStore(j job, res Result) {
	if err := os.MkdirAll(r.opt.CacheDir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(cachedResult{
		Version:  cacheVersion,
		CfgLabel: j.cfgLabel,
		Mix:      j.mix.Name,
		Result:   res,
	}, "", "\t")
	if err != nil {
		return
	}
	path := filepath.Join(r.opt.CacheDir, r.diskKey(j)+".json")
	tmp, err := os.CreateTemp(r.opt.CacheDir, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// corruptCacheEntry truncates a job's stored cache entry to half its
// length. It exists solely for the "corrupt:" FaultSpec directive: the
// read path must treat the damaged entry as a miss and recompute, which
// the resilience tests and the CI resume-smoke job assert end to end.
func (r *runner) corruptCacheEntry(j job) {
	path := filepath.Join(r.opt.CacheDir, r.diskKey(j)+".json")
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		fmt.Fprintf(os.Stderr, "harness: faultspec corrupt %s: %v\n", path, err)
	}
}
