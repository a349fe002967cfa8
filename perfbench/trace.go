package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Parent 0 is the root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	spans []*span
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, &span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is set later with close.
func (t *tracer) open(parent int, name string, start time.Time) int {
	return t.add(parent, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: the span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]*span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		out[s.Name] += selfTime(s, children[s.ID])
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// write stores the spans as JSON and prints the self-time table.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("trace: %d spans written to %s; self time by span:\n", n, path)
	for _, k := range names {
		fmt.Printf("  %-28s %10.4f s\n", k, self[k].Seconds())
	}
	return nil
}
