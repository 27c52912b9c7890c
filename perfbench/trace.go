package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Times are nanoseconds since the tracer was created; parent is the index of
// the enclosing span (-1 at the root) and req the request id (-1 outside a
// request, e.g. during set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory from the benchmark's single client
// goroutine. When off, begin/end cost one branch and record nothing, so the
// untraced and traced runs execute the same calls in the same order.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int // index of the innermost open span, -1 if none
	req   int
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now(), cur: -1, req: -1}
	if on {
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

// begin opens a span named name under the innermost open span and returns
// its handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Req: t.req})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.cur = t.spans[id].Parent
}

// request times the server- or client-visible part of request i: it opens
// the root span "app.request" and returns a function that closes it and
// reports what the request cost. The cost is measured whether or not spans
// are recorded.
func (t *tracer) request(i int) func() interval {
	t.req = i
	id := t.begin("app.request")
	start := readUsage()
	return func() interval {
		iv := readUsage().since(start)
		t.end(id)
		t.req = -1
		return iv
	}
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats aggregates the spans of completed requests: for every span name
// the per-request total time and call count, plus each request's self time
// (its root span minus the time its direct children cover). Children of one
// request run one after another on the client goroutine, so the direct
// children's durations sum to the interval they cover.
type spanStats struct {
	reqs    []int                // request ids in completion order
	totalMs map[int]float64      // request id → root span duration
	selfMs  map[int]float64      // request id → root minus direct children
	ms      map[string][]float64 // span name → per-request total, one per request
	calls   map[string][]float64 // span name → per-request call count
}

func (t *tracer) stats() spanStats {
	st := spanStats{
		totalMs: map[int]float64{},
		selfMs:  map[int]float64{},
		ms:      map[string][]float64{},
		calls:   map[string][]float64{},
	}
	perReqMs := map[string]map[int]float64{}
	perReqCalls := map[string]map[int]float64{}
	for _, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		if s.Name == "app.request" {
			st.reqs = append(st.reqs, s.Req)
			st.totalMs[s.Req] = d
			st.selfMs[s.Req] += d
			continue
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == "app.request" {
			st.selfMs[s.Req] -= d
		}
		if perReqMs[s.Name] == nil {
			perReqMs[s.Name] = map[int]float64{}
			perReqCalls[s.Name] = map[int]float64{}
		}
		perReqMs[s.Name][s.Req] += d
		perReqCalls[s.Name][s.Req]++
	}
	for name, m := range perReqMs {
		for _, r := range st.reqs {
			st.ms[name] = append(st.ms[name], m[r])
			st.calls[name] = append(st.calls[name], perReqCalls[name][r])
		}
	}
	return st
}

// setupSeconds returns the median duration in seconds of each set-up span.
func (t *tracer) setupSeconds() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range t.spans {
		if s.Req < 0 && s.Parent < 0 {
			by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e9)
		}
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
