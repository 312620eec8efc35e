package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowed is a run split into equal measurement windows. Each reported
// figure is the median over the windows of that figure taken per window, so
// one disturbed window (a noisy neighbour, a GC burst) cannot move it.
type windowed struct {
	start int64 // mono ns the first window opens
	width int64 // ns
	n     int
}

// newWindows lays n windows over span, opening after warm.
func newWindows(warm, span time.Duration, n int) windowed {
	return windowed{start: mono() + int64(warm), width: int64(span) / int64(n), n: n}
}

// index returns the window a sample stamped at t (mono ns) belongs to, or
// -1 outside the measured span.
func (w windowed) index(t int64) int {
	if t < w.start {
		return -1
	}
	i := int((t - w.start) / w.width)
	if i >= w.n {
		return -1
	}
	return i
}

// at is the instant window i opens (i == n: the last one closes).
func (w windowed) at(i int) int64 { return w.start + int64(i)*w.width }

// end is the instant the last window closes.
func (w windowed) end() int64 { return w.at(w.n) }

// series collects latency samples per window.
type series struct {
	w   windowed
	per [][]float64
}

func newSeries(w windowed) *series { return &series{w: w, per: make([][]float64, w.n)} }

// add records a sample stamped at t (mono ns); samples outside the
// windows are ignored.
func (s *series) add(t int64, v float64) {
	if i := s.w.index(t); i >= 0 {
		s.per[i] = append(s.per[i], v)
	}
}

// count is the number of samples across all windows.
func (s *series) count() int {
	n := 0
	for _, p := range s.per {
		n += len(p)
	}
	return n
}

// windowQuantile is the median over windows of each window's q-quantile.
func (s *series) windowQuantile(q float64) float64 {
	var vals []float64
	for _, p := range s.per {
		if len(p) > 0 {
			vals = append(vals, quantile(p, q))
		}
	}
	return median(vals)
}

// counts is the number of samples in each window.
func (s *series) counts() []int {
	out := make([]int, len(s.per))
	for i, p := range s.per {
		out[i] = len(p)
	}
	return out
}

// rate counts events per window.
type rate struct {
	w           windowed
	n           []int
	first, last []int64 // earliest and latest event stamp per window
}

func newRate(w windowed) *rate {
	return &rate{w: w, n: make([]int, w.n), first: make([]int64, w.n), last: make([]int64, w.n)}
}

// add counts an event stamped at t (mono ns); events outside the windows
// are ignored.
func (r *rate) add(t int64) {
	i := r.w.index(t)
	if i < 0 {
		return
	}
	if r.n[i] == 0 || t < r.first[i] {
		r.first[i] = t
	}
	if t > r.last[i] {
		r.last[i] = t
	}
	r.n[i]++
}

// count is the number of events across all windows.
func (r *rate) count() int {
	n := 0
	for _, c := range r.n {
		n += c
	}
	return n
}

// perSecond is the median over windows of events per second. Within a
// window the rate is taken between its first and last event, so it is not
// quantised to whole events per window.
func (r *rate) perSecond() float64 {
	var vals []float64
	for i, n := range r.n {
		if n > 1 && r.last[i] > r.first[i] {
			vals = append(vals, float64(n-1)/(float64(r.last[i]-r.first[i])/1e9))
		}
	}
	return median(vals)
}
