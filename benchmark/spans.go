package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer was created; Parent is the id of the span
// that was open when this one began (0 for the root, whose id is 1).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanFile is what a traced run writes when it ends. Every span of one
// invocation shares its Invocation id.
type spanFile struct {
	Invocation string `json:"invocation"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Spans      []span `json:"spans"`
}

// tracer records spans in memory from the benchmark's own goroutine; the
// calls it brackets are sequential, so the open spans form a stack. A nil
// tracer records nothing, which is how the untraced end-to-end run shares
// the repetition code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[spans[s.Parent-1].Name] -= s.EndNs - s.StartNs
		}
	}
	return self
}

func (t *tracer) write(path string, f spanFile) error {
	f.Spans = t.spans
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
