package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Start and End are nanoseconds since the
// tracer's epoch on the monotonic clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`    // workload-run id
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. Calls nest on one goroutine: a span's
// parent is the innermost span still open when it begins. A nil tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun labels the spans that begin from now on.
func (t *tracer) setRun(run string) {
	if t != nil {
		t.run = run
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(layer, op string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run,
		Layer: layer, Op: op, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// runSpans returns the spans of one workload run.
func (t *tracer) runSpans(run string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line, after a header
// line holding the comparability key.
func (t *tracer) write(path string, key map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"key": key, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// interval is a closed-open stretch of the trace clock.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers; the
// intervals may overlap each other and stick out of [lo, hi).
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each span's self time in seconds — its duration
// minus the part of its interval its child spans cover — summed by
// "layer" and by "layer/op". Spans whose parent is outside the set are
// treated as roots.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])) / 1e9
		out[s.Layer] += self
		out[s.Layer+"/"+s.Op] += self
	}
	return out
}

// wallTimes sums span durations by "layer/op".
func wallTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer+"/"+s.Op] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail applies the percentile rule to xs: it returns the highest
// percentile, capped at 99, that has at least minBeyond samples beyond
// it, with its value (nearest rank). With fewer than minBeyond+1
// samples no percentile qualifies and the median is returned instead.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= minBeyond {
		return 50, median(s)
	}
	k := min(n-1-minBeyond, int(math.Ceil(0.99*float64(n)))-1)
	return 100 * float64(k+1) / float64(n), s[k]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
