package main

import (
	"math/rand"
	"sort"
	"testing"
)

// bruteQuantile finds the nearest-rank quantile by scanning: the first
// sorted sample at or below which at least q of all samples lie.
func bruteQuantile(vs []float64, q float64) (float64, int) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for i := range s {
		if float64(i+1) >= q*float64(len(s))-1e-9 {
			return s[i], len(s) - 1 - i
		}
	}
	return 0, 0
}

func TestQuantileMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 10, 11, 19, 20, 21, 100, 999, 1000, 1001, 2500} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = r.ExpFloat64() * 10
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, ok := quantile(sorted, q)
			want, beyond := bruteQuantile(vs, q)
			if got != want {
				t.Errorf("n=%d q=%v: quantile %v, brute force %v", n, q, got, want)
			}
			if ok != (beyond >= minBeyond) {
				t.Errorf("n=%d q=%v: ok=%v with %d samples beyond", n, q, ok, beyond)
			}
		}
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {5000, true}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		if _, ok := quantile(s, 0.99); ok != tc.ok {
			t.Errorf("n=%d: p99 reportable=%v, want %v", tc.n, ok, tc.ok)
		}
		if sum := summarize(s, 0); sum.P99OK != tc.ok || (!tc.ok && sum.P99 != 0) {
			t.Errorf("n=%d: summary %+v", tc.n, sum)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1}, 2}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		in := append([]float64(nil), tc.in...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Errorf("median reordered its input: %v", in)
			}
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	buf := fillPayload(nil, 4096, 7, 42, 9)
	if v, err := checkPayload(buf, 4096, 42); err != nil || v != 9 {
		t.Fatalf("check = %d, %v", v, err)
	}
	again := fillPayload(make([]byte, 10), 4096, 7, 42, 9)
	if string(again) != string(buf) {
		t.Fatal("payload is not a function of (seed, file, version)")
	}
	if _, err := checkPayload(buf, 4096, 41); err == nil {
		t.Error("wrong file accepted")
	}
	if _, err := checkPayload(buf[:4095], 4096, 42); err == nil {
		t.Error("short payload accepted")
	}
	buf[100] ^= 1
	if _, err := checkPayload(buf, 4096, 42); err == nil {
		t.Error("corrupted payload accepted")
	}
}
