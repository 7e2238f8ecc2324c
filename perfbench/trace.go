package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Name is "<layer>.<what>"; Parent is the ID
// of the span that caused it (0 for a root); Job groups the spans of one
// job or run. Derived spans are not timed directly: they are placed from
// the program's own phase profile or epoch stamps.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and returns span ID 0, so untraced runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span now and returns its ID.
func (t *tracer) start(name string, parent int, job string) int {
	if !t.on {
		return 0
	}
	return t.add(name, parent, job, time.Now(), time.Time{}, false)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span with known bounds (a zero end leaves it open).
func (t *tracer) add(name string, parent int, job string, start, end time.Time, derived bool) int {
	if !t.on {
		return 0
	}
	s := span{Parent: parent, Job: job, Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), Derived: derived}
	if !end.IsZero() {
		s.EndNs = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		cur, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > cur {
				covered += curEnd - cur
			}
		}
		for _, k := range kids {
			lo, hi := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		flush()
		out[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// layerSelf sums span self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// setSelfMetrics reports each layer's self time per job over the spans of
// the traced jobs; the per-layer timing loops (job "layers") are left out.
func (e *env) setSelfMetrics(jobs int) {
	e.tr.mu.Lock()
	var spans []span
	for _, s := range e.tr.spans {
		if s.Job != layersJob {
			spans = append(spans, s)
		}
	}
	e.tr.mu.Unlock()
	self := layerSelf(spans)
	n := float64(max(jobs, 1))
	for _, l := range selfLayers {
		e.set("self."+l+".ms_per_job", float64(self[l])/1e6/n)
	}
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
