package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"zivsim/internal/obs"
)

// tracer keeps spans in memory for the traced phase and writes them once,
// at the end, through obs.WriteTimeline. A nil *tracer records nothing, so
// untraced phases pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed interval. parent is 0 for a root span; op names the
// job or operation the span belongs to.
type span struct {
	track, name, op string
	parent          int
	start, end      time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(track, name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{track: track, name: name, op: op, parent: parent, start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	return now.Sub(s.start)
}

// write emits the timeline as Chrome trace JSON and, when a zivreport
// binary is given, validates it with zivreport -checktrace. It returns the
// number of spans written.
func (t *tracer) write(path, label, zivreport string) (int, error) {
	t.mu.Lock()
	out := make([]obs.TimelineSpan, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end.IsZero() {
			t.mu.Unlock()
			return 0, fmt.Errorf("span %d (%s) was never closed", i+1, s.name)
		}
		out = append(out, obs.TimelineSpan{
			Track:   s.track,
			Name:    s.name,
			StartUS: uint64(s.start.Sub(t.epoch).Microseconds()),
			DurUS:   uint64(s.end.Sub(s.start).Microseconds()),
			Args:    map[string]any{"id": i + 1, "parent": s.parent, "op": s.op},
		})
	}
	t.spans = nil // the timeline copy is all that is needed from here on
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteTimeline(w, "perfbench "+label, out, nil); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if zivreport == "" {
		return len(out), nil
	}
	if msg, err := exec.Command(zivreport, "-checktrace", path).CombinedOutput(); err != nil {
		return 0, fmt.Errorf("zivreport -checktrace %s: %v: %s", path, err, msg)
	}
	return len(out), nil
}
