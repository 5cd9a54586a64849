package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report is one workload run's raw measurements.
type report struct {
	workload  string
	setups    []time.Duration // one per repeated set-up; the median is setup_s
	latencies []time.Duration // one per completed timed op
	costs     []int           // the spec cost of each latency; empty for builds
	elapsed   time.Duration   // wall time of the timed phase
	attempted int
	failed    int
	rssMB     float64           // peak RSS when the timed phase ended
	runtime   map[string]metric // Go runtime metrics of the timed phase
	layers    map[string]metric // per-layer metrics of a traced run
	notes     []string          // human-readable lines printed before the result
}

// tailPercentile returns the highest percentile of n sorted samples
// that still has at least ten samples beyond it: the one read by the
// sample of ascending rank n-11, which n-10 of the n samples do not
// exceed. ok is false when n < 11.
func tailPercentile(n int) (p float64, rank int, ok bool) {
	if n < 11 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), n - 11, true
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the end-to-end metrics of the run.
func (r *report) endToEnd() result {
	lat := seconds(r.latencies)
	sort.Float64s(lat)
	m := map[string]metric{
		"setup_s":     {median(seconds(r.setups)), "s"},
		"throughput":  {float64(len(lat)) / r.elapsed.Seconds(), "ops/s"},
		"p50_ms":      {median(lat) * 1e3, "ms"},
		"peak_rss_mb": {r.rssMB, "MB"},
	}
	if _, rank, ok := tailPercentile(len(lat)); ok {
		m["tail_ms"] = metric{lat[rank] * 1e3, "ms"}
	} else if len(lat) > 0 {
		m["tail_ms"] = metric{lat[len(lat)-1] * 1e3, "ms"}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// result assembles the printed result: end-to-end metrics untraced,
// per-layer metrics traced. A twin (the untraced run a traced one
// compares itself with) adds its runtime metrics.
func (r *report) result(traced, twin bool) result {
	out := r.endToEnd()
	if traced {
		out.Metrics = map[string]metric{}
		for k, v := range r.layers {
			out.Metrics[k] = v
		}
	}
	if twin {
		for k, v := range r.runtime {
			out.Metrics[k] = v
		}
	}
	return out
}

// describe prints the run's human-readable summary: the tail's
// percentile and sample count, and any workload notes.
func (r *report) describe(w io.Writer) {
	n := len(r.latencies)
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed, %d completed in %.2fs; %d set-ups\n",
		r.workload, r.attempted, r.failed, n, r.elapsed.Seconds(), len(r.setups))
	if p, rank, ok := tailPercentile(n); ok {
		fmt.Fprintf(w, "tail_ms is p%.2f of %d samples (%d beyond it)\n", p, n, n-1-rank)
	} else {
		fmt.Fprintf(w, "tail_ms is the slowest of %d ops: too few for a percentile with ten samples beyond\n", n)
	}
	setups := make([]string, len(r.setups))
	for i, d := range r.setups {
		setups[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	fmt.Fprintf(w, "set-ups in order (s): %s\n", strings.Join(setups, " "))
	for _, line := range r.costLines() {
		fmt.Fprintln(w, line)
	}
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
}

// costLines summarizes the timed ops by spec cost: how many, their
// median and slowest latency, and how many of them are among the ops
// at or beyond the tail.
func (r *report) costLines() []string {
	if len(r.costs) != len(r.latencies) || len(r.costs) == 0 {
		return nil
	}
	byCost := map[int][]float64{}
	for i, c := range r.costs {
		byCost[c] = append(byCost[c], r.latencies[i].Seconds()*1e3)
	}
	tail := map[int]int{}
	if _, rank, ok := tailPercentile(len(r.latencies)); ok {
		idx := make([]int, len(r.latencies))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return r.latencies[idx[a]] < r.latencies[idx[b]] })
		for _, i := range idx[rank:] {
			tail[r.costs[i]]++
		}
	}
	var cs []int
	for c := range byCost {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	var out []string
	for _, c := range cs {
		xs := byCost[c]
		sort.Float64s(xs)
		out = append(out, fmt.Sprintf("cost %2d: %6d ops, median %9.3f ms, slowest %9.3f ms, %2d at or beyond the tail",
			c, len(xs), median(xs), xs[len(xs)-1], tail[c]))
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
