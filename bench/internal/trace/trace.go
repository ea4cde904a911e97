// Package trace keeps the spans of a traced benchmark run in memory and
// writes them out when the run ends. Spans are taken from outside the system
// under test: the benchmark brackets its own calls into each layer and
// matches per-record arrival times at tier boundaries, so a span's name is
// the prefix of the per-layer metric it feeds.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Span is one bracketed interval. Start and End are Unix nanoseconds. Spans
// of one record share ID ("app:firstIndex"); Parent names the span that
// caused this one ("" for a root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	ID     string `json:"id,omitempty"`
}

// perName bounds how many spans of one name are kept: a saturated run
// makes millions of calls, and the file is for reading a few thousand of
// them. Calls beyond the bound are counted, not kept.
const perName = 20000

// Recorder collects spans. A nil *Recorder records nothing, which is how an
// untraced run pays nothing for the call sites.
type Recorder struct {
	mu      sync.Mutex
	spans   []Span
	kept    map[string]int
	dropped map[string]int
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{kept: make(map[string]int), dropped: make(map[string]int)}
}

// Add records one span.
func (r *Recorder) Add(name string, start, end int64, parent, id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.kept[name] < perName {
		r.kept[name]++
		r.spans = append(r.spans, Span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	} else {
		r.dropped[name]++
	}
	r.mu.Unlock()
}

// ID formats the identifier spans of one record share.
func ID(app int, firstIndex uint64) string { return fmt.Sprintf("%d:%d", app, firstIndex) }

// Count returns how many spans of the named layer ("hbnet" matches
// "hbnet.client_next") were taken, kept or not.
func (r *Recorder) Count(layer string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name, k := range r.kept {
		if strings.HasPrefix(name, layer+".") {
			n += k + r.dropped[name]
		}
	}
	return n
}

// file is the written document.
type file struct {
	Workload string         `json:"workload"`
	Dropped  map[string]int `json:"dropped"`
	Spans    []Span         `json:"spans"`
}

// Write stores the spans at path, creating its directory.
func (r *Recorder) Write(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(file{Workload: workload, Dropped: r.dropped, Spans: r.spans})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
