package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 0; n < 11; n++ {
		if _, _, ok := tailPercentile(n); ok {
			t.Errorf("n=%d: a tail with ten samples beyond needs eleven samples", n)
		}
	}
	for _, n := range []int{11, 12, 100, 1000, 2560, 35008} {
		p, rank, ok := tailPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if beyond := n - 1 - rank; beyond != 10 {
			t.Errorf("n=%d: %d samples beyond rank %d, want exactly 10 (the highest such percentile)", n, beyond, rank)
		}
		// The percentile names the share of samples at or below it.
		if want := 100 * float64(rank+1) / float64(n); p != want {
			t.Errorf("n=%d: percentile %v, want %v", n, p, want)
		}
	}
	if p, _, _ := tailPercentile(1000); p != 99 {
		t.Errorf("1000 samples: tail is p%v, want p99", p)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(a, b int) span {
		return span{start: time.Duration(a) * time.Millisecond, end: time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	cases := []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{ms(10, 20), ms(50, 60)}, 80},
		{"overlapping", []span{ms(10, 30), ms(20, 40)}, 70},
		{"nested", []span{ms(10, 60), ms(20, 30)}, 50},
		{"clipped to the parent", []span{ms(90, 120), ms(-5, 5)}, 85},
		{"outside the parent", []span{ms(100, 130)}, 100},
		{"covering", []span{ms(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	r := &report{workload: "w", elapsed: 2 * time.Second, rssMB: 30}
	for i := 1; i <= 20; i++ {
		r.latencies = append(r.latencies, time.Duration(i)*time.Millisecond)
	}
	r.setups = []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	m := r.endToEnd().Metrics
	want := map[string]float64{"throughput": 10, "p50_ms": 10.5, "tail_ms": 10, "setup_s": 2, "peak_rss_mb": 30}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	r.latencies = r.latencies[:10]
	if got := r.endToEnd().Metrics["tail_ms"].Value; got != 10 {
		t.Errorf("tail_ms of 10 ops = %v, want the slowest op, 10", got)
	}
}

func TestEveryLayerMetricIsListedOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, lm := range layerMetrics {
		if seen[lm.name] {
			t.Errorf("%s listed twice", lm.name)
		}
		seen[lm.name] = true
	}
	if got := len(zeroLayers().m); got != len(layerMetrics) {
		t.Errorf("zeroLayers has %d metrics, want %d", got, len(layerMetrics))
	}
}
