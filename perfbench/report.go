package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd is what a user of the system sees, measured untraced: the
// metrics every workload has that repeat within a tenth across seeds.
// The other user-facing metrics are measured by the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"wire_bytes_per_op", "B", false},
}

// perLayer is measured by the traced run, with a decorator at every
// boundary. A metric of a layer or op class a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	{"traced.ops_per_s", "1/s", true},
	{"op.samples", "count", true},
	{"op.tail_q", "ratio", true},
	{"op.tail_ms", "ms", false},
	{"op_p50_ms", "ms", false},
	{"op_p99_ms", "ms", false},
	{"create_p50_ms", "ms", false},
	{"stat_p50_ms", "ms", false},
	{"read_p50_ms", "ms", false},
	{"read_p99_ms", "ms", false},
	{"write_p50_ms", "ms", false},
	{"delete_p50_ms", "ms", false},
	{"chmod_p50_ms", "ms", false},
	{"failed_op_ratio", "ratio", false},
	{"ssp_bytes_per_user_byte", "ratio", false},

	{"client.self_ms_per_op", "ms", false},
	{"client.crypto_ms_per_op", "ms", false},
	{"client.store_wait_ms_per_op", "ms", false},
	{"client.accounted_ratio", "ratio", true},
	{"client.store_calls_per_create", "count", false},
	{"client.store_calls_per_stat", "count", false},
	{"client.store_calls_per_read", "count", false},
	{"client.store_calls_per_write", "count", false},
	{"client.store_calls_per_chmod", "count", false},

	{"cache.hit_ratio", "ratio", true},
	{"cache.misses_per_read", "count", false},

	{"ssp.wb.call_ms_p50", "ms", false},
	{"ssp.wb.call_ms_p99", "ms", false},
	{"ssp.wb.flushes_per_op", "count", false},
	{"ssp.wb.items_per_flush", "count", true},
	{"ssp.wb.flush_ms_p50", "ms", false},
	{"ssp.wb.flush_ms_p99", "ms", false},

	{"shard.get_ms_p50", "ms", false},
	{"shard.get_ms_p99", "ms", false},
	{"shard.put_ms_p50", "ms", false},
	{"shard.fanout", "count", false},
	{"shard.hedge_ratio", "ratio", false},
	{"shard.hedge_win_ratio", "ratio", true},

	{"ssp.client.calls_per_op", "count", false},
	{"ssp.client.ms_p50", "ms", false},
	{"ssp.client.ms_p99", "ms", false},
	{"ssp.client.inflight_mean", "count", true},
	{"ssp.client.error_ratio", "ratio", false},

	{"netsim.bytes_up_per_op", "B", false},
	{"netsim.bytes_down_per_op", "B", false},
	{"wire.writes_per_call", "count", false},

	{"ssp.store.calls_per_op", "count", false},
	{"ssp.store.us_per_call", "us", false},
	{"ssp.store.bytes_written_per_op", "B", false},
	{"ssp.transport_ms_per_call", "ms", false},

	{"go.alloc_bytes_per_op", "B", false},
	{"go.gc_pause_ms_per_kop", "ms", false},
	{"go.heap_peak_mb", "MiB", false},

	{"trace.unparented_per_op", "count", false},
}

// dist is a sorted sample of durations in nanoseconds.
type dist []int64

func newDist(ns []int64) dist {
	d := append(dist(nil), ns...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// q is the nearest-rank quantile, in milliseconds (0 for no samples).
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	i = max(0, min(i, len(d)-1))
	return float64(d[i]) / 1e6
}

// tailQ is the highest quantile with at least ten samples beyond it.
func (d dist) tailQ() float64 {
	if len(d) <= 10 {
		return 0
	}
	return float64(len(d)-10) / float64(len(d))
}

// ratio is a/b, or 0 when b is 0 (the layer or class did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is [start, end) in tracer nanoseconds.
type interval struct{ start, end int64 }

// covered is the length of the union of ivs, clipped to within.
func covered(ivs []interval, within interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, within.start), min(iv.end, within.end)
		if iv.end <= iv.start {
			continue
		}
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// windowCount is how many equal slices of the measured time ops_per_s is
// taken over when a workload has no rounds of its own. It reports the
// median rate over the windows, so a burst of interference on a shared
// host moves it less.
const windowCount = 9

// rounder is a workload made of rounds of identical shape; its windows
// are its rounds, since time slices would cut rounds into phases of
// different speed.
type rounder interface {
	roundEnds() []time.Time
}

func windowEnds(inst instance, t0 time.Time, elapsed time.Duration) []time.Time {
	if r, ok := inst.(rounder); ok {
		return r.roundEnds()
	}
	ends := make([]time.Time, windowCount)
	for i := range ends {
		ends[i] = t0.Add(elapsed * time.Duration(i+1) / windowCount)
	}
	return ends
}

// windowRates is the ops completed per second in each window; ends are
// the windows' ascending end times, the last one the end of measurement.
func windowRates(ops []sample, t0 time.Time, ends []time.Time) []float64 {
	counts := make([]int, len(ends))
	for _, o := range ops {
		i := sort.Search(len(ends), func(i int) bool { return !o.end.After(ends[i]) })
		counts[min(i, len(ends)-1)]++
	}
	rates := make([]float64, len(ends))
	start := t0
	for i, e := range ends {
		rates[i] = float64(counts[i]) / e.Sub(start).Seconds()
		start = e
	}
	return rates
}

func median(vs []float64) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}
