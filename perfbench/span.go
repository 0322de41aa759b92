package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one call into a layer, timed from outside the program. Start and
// End are nanoseconds since the tracer's epoch; Parent is 0 for a root.
// AllocBytes is the heap allocated while the span was open, which is exact
// only when one goroutine runs, as in the traced composition.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Iter       int    `json:"iter"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out once. A nil
// tracer records nothing, so the untraced composition runs the same code.
type tracer struct {
	epoch  time.Time
	iter   int
	spans  []span
	open   []int // indices of open spans, innermost last
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Iter: t.iter, AllocBytes: t.allocated()})
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.epoch).Nanoseconds()
	return i
}

// end closes the innermost open span, which begin returned as i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	s := &t.spans[i]
	s.End = end
	s.AllocBytes = t.allocated() - s.AllocBytes
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the time its child spans
// cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(children[s.ID])
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// write stores the spans and the session record as one JSON file.
func (t *tracer) write(path string, session any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Session any    `json:"session"`
		Spans   []span `json:"spans"`
	}{session, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
