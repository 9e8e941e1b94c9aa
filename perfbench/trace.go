package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`          // statement id; -1 outside the statement sequence
	Tag    string `json:"tag,omitempty"` // the call's outcome class, such as the DML plan
	Start  int64  `json:"start_ns"`      // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, stmt int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Stmt: stmt, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// tag labels span id with the outcome of its call.
func (t *tracer) tag(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Tag = tag
	t.mu.Unlock()
}

// layerTime is the summed self time of every span with one name.
type layerTime struct {
	Count  int
	SelfNS int64
}

// meanMS is the mean self time per span in milliseconds.
func (l layerTime) meanMS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count) / 1e6
}

// selfTimes sums the self time of the spans grouped by key (spans
// whose key is "" are skipped). A span's self time is its duration
// minus the part of it that its children cover.
func selfTimes(spans []span, key func(span) string) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		k := key(s)
		if k == "" {
			continue
		}
		lt := out[k]
		lt.Count++
		lt.SelfNS += selfTime(s, children[s.ID])
		out[k] = lt
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals clipped to the parent, so children that overlap each
// other (concurrent calls) or outlive the parent are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.End - parent.Start - covered
}

// byName groups spans by name.
func byName(s span) string { return s.Name }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
