// Command perfbench is the repository benchmark. It builds the Sharoes
// stack from the package constructors, drives one seeded closed-loop
// workload for a fixed time, checks every result against a model of the
// expected filesystem, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run, a decorator at every layer
// boundary). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; see perfbench/README.md):
//
//	python3 perfbench/run.py --workload createlist-wan --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
)

// A run sets its workload up at least setupMin times and until the
// set-ups have taken setupBudget in all; setup_s is their median, and the
// last set-up is the one measured. Cheap set-ups repeat more, so their
// median is as steady as that of an expensive one.
const (
	setupMin    = 5
	setupBudget = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: createlist-wan, postmark-wan or share-wan")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs with a decorator at every layer boundary and reports the per-layer metrics")
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	ok, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run sets the workload up, measures the last set-up and prints the
// result. It reports whether every result was correct.
func run(w *workloadDef, seed int64, dur time.Duration, traced bool) (bool, error) {
	p, err := newPrincipals()
	if err != nil {
		return false, err
	}
	var setups []float64
	var inst instance
	var tr *tracer
	for total := time.Duration(0); len(setups) < setupMin || total < setupBudget; {
		if inst != nil {
			if err := inst.stack().close(); err != nil {
				return false, err
			}
		}
		if traced {
			tr = newTracer()
		}
		t0 := time.Now()
		in, err := w.start(p, seed, tr)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		total += d
		inst = in
	}
	st := inst.stack()
	runtime.GC()

	before := readCounters(st)
	heap := startHeapSampler(tr.storeBytes)
	if tr != nil {
		tr.start()
	}
	t0 := time.Now()
	inst.measure(t0.Add(dur))
	elapsed := time.Since(t0)
	if tr != nil {
		tr.stop()
	}
	heapPeak := heap.stop()
	delta := readCounters(st).sub(before)

	finishErr := inst.finish()
	stored, storedErr := st.storedBytes()
	userBytes := inst.userBytes()
	if err := st.close(); err != nil {
		return false, err
	}
	if storedErr != nil {
		return false, storedErr
	}

	var ops []sample
	var readMisses int64
	attempted, failed := 0, 0
	for _, d := range inst.drivers() {
		ops = append(ops, d.samples...)
		readMisses += d.readMisses
		attempted += d.attempted
		failed += d.failed
		for _, e := range d.errs {
			fmt.Fprintf(os.Stderr, "perfbench: wrong result: %s\n", e)
		}
	}
	if finishErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: end-of-run check: %v\n", finishErr)
		failed++
	}
	if attempted == 0 {
		return false, fmt.Errorf("no operation completed")
	}

	out := os.Stdout
	printProvenance(w, st.profile, seed, dur, traced)
	classes := printClasses(ops)
	all := make([]int64, len(ops))
	for i, o := range ops {
		all[i] = o.ns
	}
	allD := newDist(all)
	n := float64(len(ops))
	m := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		m["traced.ops_per_s"] = n / elapsed.Seconds()
		m["op.samples"] = n
		m["op.tail_q"] = allD.tailQ()
		m["op.tail_ms"] = allD.q(allD.tailQ())
		m["op_p50_ms"] = allD.q(0.50)
		m["op_p99_ms"] = allD.q(0.99)
		for _, c := range []string{"create", "stat", "read", "write", "delete", "chmod"} {
			m[c+"_p50_ms"] = classes[c].q(0.50)
		}
		m["read_p99_ms"] = classes["read"].q(0.99)
		m["failed_op_ratio"] = float64(failed) / float64(attempted)
		m["ssp_bytes_per_user_byte"] = ratio(float64(stored), float64(userBytes))
		m["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
		perLayerMetrics(layerInput{tr: tr, sharded: len(st.backings) > 1, ops: ops,
			readMisses: readMisses, elapsedNs: int64(elapsed), c: delta}, m, out)
	} else {
		rates := windowRates(ops, t0, windowEnds(inst, t0, elapsed))
		m["setup_s"] = median(setups)
		m["ops_per_s"] = median(rates)
		fmt.Fprintf(out, "# ops_per_s by window %.1f\n", rates)
		m["wire_bytes_per_op"] = float64(delta.wireUp+delta.wireDown) / n
		fmt.Fprintf(out, "# op_p50_ms %.3f, op_p99_ms %.3f, create_p50_ms %.3f (whole run)\n",
			allD.q(0.50), allD.q(0.99), classes["create"].q(0.50))
		fmt.Fprintf(out, "# %d set-ups; failed_op_ratio %g; ssp_bytes_per_user_byte %g (%d stored, %d user); heap_peak_mb %.3f\n",
			len(setups), float64(failed)/float64(attempted), ratio(float64(stored), float64(userBytes)), stored, userBytes,
			float64(heapPeak)/(1<<20))
	}

	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s not computed", d.name)
		}
		fmt.Fprintf(out, "metric %-34s %14.6f %s\n", d.name, v, d.unit)
		result.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return result.Correct, nil
}

// printClasses prints each op class's sample count, median, p99 and the
// highest percentile with at least ten samples beyond it, from the raw
// per-op samples, and returns the distributions.
func printClasses(ops []sample) map[string]dist {
	byClass := map[string][]int64{}
	for _, o := range ops {
		byClass[o.class] = append(byClass[o.class], o.ns)
	}
	names := make([]string, 0, len(byClass))
	out := map[string]dist{}
	for c, ns := range byClass {
		names = append(names, c)
		out[c] = newDist(ns)
	}
	sort.Strings(names)
	for _, c := range names {
		d := out[c]
		fmt.Printf("# class %-8s n %7d  p50 %9.3f ms  p99 %9.3f ms  p%.4g %9.3f ms\n",
			c, len(d), d.q(0.5), d.q(0.99), 100*d.tailQ(), d.q(d.tailQ()))
	}
	return out
}

func (c counters) sub(o counters) counters {
	return counters{
		wireUp: c.wireUp - o.wireUp, wireDown: c.wireDown - o.wireDown,
		wbFlushes: c.wbFlushes - o.wbFlushes, wbItems: c.wbItems - o.wbItems,
		wbLaneFlushes: c.wbLaneFlushes - o.wbLaneFlushes,
		hedged:        c.hedged - o.hedged, hedgeWon: c.hedgeWon - o.hedgeWon,
		cryptoNs:  c.cryptoNs - o.cryptoNs,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		allocBytes: c.allocBytes - o.allocBytes, gcPauseNs: c.gcPauseNs - o.gcPauseNs,
	}
}

func readCounters(st *stack) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		wireUp:        st.reg.Counter("netsim.bytes_up").Value(),
		wireDown:      st.reg.Counter("netsim.bytes_down").Value(),
		wbFlushes:     st.reg.Counter("ssp.wb.flushes").Value(),
		wbItems:       st.reg.Counter("ssp.wb.flushed_items").Value(),
		wbLaneFlushes: st.reg.Counter("ssp.wb.lane_flushes").Value(),
		hedged:        st.reg.Counter("shard.get.hedged").Value(),
		hedgeWon:      st.reg.Counter("shard.get.hedge_won").Value(),
		cryptoNs:      int64(st.rec.Snapshot().Crypto),
		allocBytes:    ms.TotalAlloc,
		gcPauseNs:     ms.PauseTotalNs,
	}
	for _, s := range st.sessions {
		h, m := s.CacheStats()
		c.cacheHits += h
		c.cacheMisses += m
	}
	return c
}

// heapSampler tracks the peak of the live heap, as marked by each GC,
// less what exclude reports (the traced run's span store).
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler(exclude func() uint64) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			live, ex := s[0].Value.Uint64(), exclude()
			if live > ex {
				peak = max(peak, live-ex)
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// printProvenance stamps the result with what produced it.
func printProvenance(w *workloadDef, link netsim.Profile, seed int64, dur time.Duration, traced bool) {
	commit := "unknown" // the benchmark may run from an export without git metadata
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	prov := map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu": cpu, "workload": w.name, "seed": seed,
		"seconds": dur.Seconds(), "traced": traced, "sizes": w.sizes,
		"link": fmt.Sprintf("%s (one-way %v, up %d bit/s, down %d bit/s; 0 = unshaped)",
			link.Name, link.Latency, link.UpBps, link.DownBps),
	}
	b, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Printf("# provenance %s\n", b)
}
