package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, or its value is one outlier's.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) and
// whether it is reportable, i.e. at least minBeyond samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle of vs (the mean of the two middle values for
// an even count), leaving vs unchanged.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// timer collects durations, in microseconds, of calls into one layer. It is
// safe for concurrent use.
type timer struct {
	mu      sync.Mutex
	samples []float64 // guarded by mu
	sum     float64   // guarded by mu
}

func (t *timer) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	t.mu.Lock()
	t.samples = append(t.samples, us)
	t.sum += us
	t.mu.Unlock()
}

// summary is a timer's distribution: count, mean, p50 and p99 (p99 is
// zero when it lacks minBeyond samples beyond it).
type summary struct {
	N              int
	Mean, P50, P99 float64
	P99OK          bool
}

func (t *timer) summary() summary {
	t.mu.Lock()
	s := append([]float64(nil), t.samples...)
	sum := t.sum
	t.mu.Unlock()
	return summarize(s, sum)
}

func summarize(s []float64, sum float64) summary {
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Mean = sum / float64(len(s))
	out.P50, _ = quantile(s, 0.50)
	if p, ok := quantile(s, 0.99); ok {
		out.P99, out.P99OK = p, true
	}
	return out
}
