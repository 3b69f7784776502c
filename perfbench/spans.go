package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"uwm/internal/trace"
)

// span is one timed interval of the traced run. Spans of one request
// share its X-Request-Id; children name their parent.
type span struct {
	id, parent int
	name       string
	start, end time.Time
	track      string // the Chrome trace thread: a client or the replay
	requestID  string
}

// spanLog keeps the traced run's spans in memory until the run ends.
// It is filled from one goroutine at a time.
type spanLog struct {
	spans []span
}

// add records a span and returns its id for children to point at; 0
// (no parent) is never an id.
func (l *spanLog) add(parent int, name string, start, end time.Time, track, requestID string) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, start: start, end: end,
		track: track, requestID: requestID})
	return id
}

// requestSpans records one traced request: the client-observed root,
// the backend exchange the relay timed with the gateway hop on either
// side of it, and the engine's queue and execution phases from the
// job snapshot. A request the gateway answered from its cache has
// only the root and one hop.
func (l *spanLog) requestSpans(r *result, be backendSpan, haveBackend bool) {
	track := fmt.Sprintf("client %d", r.client)
	root := l.add(0, "cluster.request", r.start, r.end, track, r.requestID)
	if !haveBackend {
		l.add(root, "cluster.hop", r.start, r.end, track, r.requestID)
		return
	}
	l.add(root, "cluster.hop", r.start, be.start, track, r.requestID)
	backend := l.add(root, "httpapi.backend", be.start, be.end, track, r.requestID)
	l.add(root, "cluster.hop", be.end, r.end, track, r.requestID)
	if r.err == nil {
		l.add(backend, "engine.queue", r.submitted, r.started, track, r.requestID)
		l.add(backend, "engine.exec", r.started, r.finished, track, r.requestID)
	}
}

// writeChrome writes the spans as a Chrome trace_event document
// (chrome://tracing, Perfetto): one complete ("X") event per span,
// one thread per track, timestamps in microseconds from the first
// span.
func (l *spanLog) writeChrome(path string) error {
	t0 := l.origin()
	tids := map[string]int{}
	var events []map[string]any
	for _, s := range l.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.track}})
		}
		args := map[string]any{"span": s.id, "parent": s.parent}
		if s.requestID != "" {
			args["request_id"] = s.requestID
		}
		events = append(events, map[string]any{
			"name": s.name, "cat": "perfbench", "ph": "X", "pid": 1, "tid": tid,
			"ts":   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			"dur":  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			"args": args,
		})
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": events}
	return writeFile(path, func(w *bufio.Writer) error { return json.NewEncoder(w).Encode(doc) })
}

// writeJSONL writes the spans in the repository's JSONL trace format,
// which `uwm-trace profile` turns into a frame tree. The span events'
// cycle field carries host nanoseconds from the first span. Each root
// span is written with its whole subtree before the next root, so
// overlapping requests still nest as the profiler expects, and span
// ids are renumbered in write order.
func (l *spanLog) writeJSONL(path string) error {
	t0 := l.origin()
	children := map[int][]int{}
	var roots []int
	for i, s := range l.spans {
		if s.parent == 0 {
			roots = append(roots, i)
		} else {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return l.spans[idx[a]].start.Before(l.spans[idx[b]].start) })
	}
	byStart(roots)
	var events []trace.Event
	next := uint64(0)
	var walk func(i int, parent uint64)
	walk = func(i int, parent uint64) {
		s := l.spans[i]
		next++
		id := next
		events = append(events, trace.Event{Kind: trace.KindSpanBegin, Cycle: s.start.Sub(t0).Nanoseconds(),
			Addr: parent, Value: id, Text: s.name})
		if parent == 0 && s.requestID != "" {
			events = append(events, trace.Event{Kind: trace.KindAnnotation, Cycle: s.start.Sub(t0).Nanoseconds(),
				Addr: id, Text: "request_id=" + s.requestID})
		}
		kids := children[s.id]
		byStart(kids)
		for _, k := range kids {
			walk(k, id)
		}
		events = append(events, trace.Event{Kind: trace.KindSpanEnd, Cycle: s.end.Sub(t0).Nanoseconds(),
			Value: id, Text: s.name})
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return writeFile(path, func(w *bufio.Writer) error { return trace.EncodeJSONL(w, events) })
}

func (l *spanLog) origin() time.Time {
	var t0 time.Time
	for _, s := range l.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	return t0
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
