package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sisyphus/internal/obs"
)

// span is one interval of a traced run: a request or probe the benchmark
// timed around its own calls, or a stage span the program recorded through
// obs.Recorder. Times are offsets from the tracer's epoch.
type span struct {
	id, parent int
	// request is the benchmark operation the span belongs to (its sequence
	// number plus one); 0 for spans outside any operation, such as probes.
	request    int
	name       string
	layer      string
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a benchmark-side span.
func (t *tracer) add(name, layer string, request int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, request: request, name: name, layer: layer,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// addOps records a finished loop's requests as operation spans, each named
// name(seq) and numbered seq+offset+1. The spans are built from the loop's
// own samples after it has ended, so a traced loop runs the same client code
// as an untraced one and the tracer's cost stays out of its figures.
func (t *tracer) addOps(st loopStats, offset int, name func(seq int) string) {
	for _, o := range st.samples {
		t.add(name(o.seq), "loadgen", o.seq+offset+1, o.sent, o.answered())
	}
}

// containSlack absorbs the offset between the tracer's and the recorder's
// clock origins, which are read a few microseconds apart.
const containSlack = 50 * time.Microsecond

// adopt imports the program's spans, recorded by rec since recEpoch, and
// gives each one the request and parent of the benchmark operation that
// contains it in time: the program's stage spans carry no request id, so
// containment is the only link. With several clients a span can fall inside
// more than one operation; the latest-starting one is the tightest fit.
func (t *tracer) adopt(rec *obs.Recorder, recEpoch time.Time) {
	off := recEpoch.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops []int
	for i, s := range t.spans {
		if s.request > 0 && s.layer == "loadgen" {
			ops = append(ops, i)
		}
	}
	sort.Slice(ops, func(a, b int) bool { return t.spans[ops[a]].start < t.spans[ops[b]].start })
	for _, ps := range rec.Spans() {
		s := span{id: len(t.spans) + 1, name: ps.Name, layer: layerOf(ps.Name),
			start: off + time.Duration(ps.StartMs*float64(time.Millisecond))}
		s.end = s.start + time.Duration(ps.DurMs*float64(time.Millisecond))
		i := sort.Search(len(ops), func(k int) bool { return t.spans[ops[k]].start > s.start+containSlack })
		// Operations start in order and at most a few overlap, so the
		// container, if any, is among the last few to start before s.
		for k := i - 1; k >= 0 && k >= i-64; k-- {
			op := t.spans[ops[k]]
			if op.start <= s.start+containSlack && s.end <= op.end+containSlack {
				s.request = op.request
				break
			}
		}
		t.spans = append(t.spans, s)
	}
	t.linkParents()
}

// linkParents sets each span's parent to the shortest span of the same
// request that contains it; the request's own operation span is the root.
func (t *tracer) linkParents() {
	byReq := map[int][]int{}
	for i, s := range t.spans {
		if s.request > 0 {
			byReq[s.request] = append(byReq[s.request], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			s := &t.spans[i]
			best := -1
			for _, j := range idx {
				c := t.spans[j]
				if j == i || c.start > s.start+containSlack || c.end+containSlack < s.end || c.end-c.start < s.end-s.start {
					continue
				}
				if c.end-c.start == s.end-s.start && j > i {
					continue // equal extent: the earlier-recorded span is the parent
				}
				if best < 0 || c.end-c.start < t.spans[best].end-t.spans[best].start {
					best = j
				}
			}
			if best >= 0 {
				s.parent = t.spans[best].id
			}
		}
	}
}

// layerOf names the module behind one of the program's span names.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "http/"):
		return "serve"
	case strings.HasPrefix(name, "platform/"):
		return "platform"
	case strings.Contains(name, "/"):
		return "experiments"
	}
	return "program"
}

// uncoveredShare is, over every operation span named opName, the share of
// its time not covered by the experiments-layer stage spans it contains: the
// time the program's own spans cannot yet account for.
func (t *tracer) uncoveredShare(opName string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	left := t.uncoveredLocked()
	var total, uncovered time.Duration
	for i, s := range t.spans {
		if s.name == opName {
			total += s.end - s.start
			uncovered += left[i]
		}
	}
	if total == 0 {
		return 0
	}
	return uncovered.Seconds() / total.Seconds()
}

// uncoveredLocked returns, for each benchmark operation span (by index),
// the part of it that the experiments-layer stage spans of its request
// leave uncovered.
func (t *tracer) uncoveredLocked() map[int]time.Duration {
	stages := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.request > 0 && s.layer == "experiments" {
			stages[s.request] = append(stages[s.request], [2]time.Duration{s.start, s.end})
		}
	}
	left := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.request > 0 && s.layer == "loadgen" {
			left[i] = s.end - s.start - unionLen(stages[s.request], s.start, s.end)
		}
	}
	return left
}

// unionLen is the length of the union of intervals, clipped to [lo, hi].
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// stageMs sums the durations of the program spans with the given name.
func (t *tracer) stageMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name && s.layer == "experiments" {
			sum += s.end - s.start
		}
	}
	return ms(sum)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// maxChromeEvents caps the trace file: a traced serve-warm run records
// about half a million spans, which the trace viewers open only slowly.
const maxChromeEvents = 100_000

// write stores the spans as Chrome trace-event JSON at path: the earliest
// maxChromeEvents of them, with the number left out under otherData. Spans
// go on lanes (thread ids) such that each lane's spans nest properly, which
// the format needs; overlapping requests and parallel stages get lanes of
// their own. An empty path writes nothing.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	left := t.uncoveredLocked()
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	spans := make([]span, len(order))
	for i, j := range order {
		spans[i] = t.spans[j]
	}
	dropped := max(len(spans)-maxChromeEvents, 0)
	spans = spans[:len(spans)-dropped]
	lanes := assignLanes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		args := map[string]any{"span_id": s.id, "parent_id": s.parent, "request_id": s.request, "layer": s.layer}
		if d, ok := left[order[i]]; ok {
			args["uncovered_ms"] = ms(d)
		}
		events[i] = chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: lanes[i] + 1, Args: args,
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]int `json:"otherData"`
	}{events, "ms", map[string]int{"spans_left_out": dropped}})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// assignLanes places each span, in start order, on the first lane whose
// open spans all contain it.
func assignLanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	lane := make([]int, len(spans))
	var stacks [][]int
	for _, i := range order {
		s := spans[i]
		placed := false
		for l, st := range stacks {
			for len(st) > 0 && spans[st[len(st)-1]].end <= s.start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
			if len(st) == 0 || spans[st[len(st)-1]].end >= s.end {
				stacks[l] = append(st, i)
				lane[i] = l
				placed = true
				break
			}
		}
		if !placed {
			stacks = append(stacks, []int{i})
			lane[i] = len(stacks) - 1
		}
	}
	return lane
}
