package main

import (
	"fmt"
	"io"
	"sort"
)

// counters are the program's own exported counts and the Go runtime's,
// read as deltas over the measured interval.
type counters struct {
	wireUp, wireDown       int64 // netsim.bytes_up / bytes_down
	wbFlushes, wbItems     int64 // ssp.wb.flushes / flushed_items
	wbLaneFlushes          int64 // ssp.wb.lane_flushes
	hedged, hedgeWon       int64 // shard.get.hedged / hedge_won
	cryptoNs               int64 // client CRYPTO recorder
	cacheHits, cacheMisses int64
	allocBytes, gcPauseNs  uint64
}

// layerInput is everything the per-layer metrics derive from.
type layerInput struct {
	tr         *tracer
	sharded    bool
	ops        []sample
	readMisses int64 // cache misses during read ops
	elapsedNs  int64
	c          counters
}

// perLayerMetrics derives the per-layer metrics from the spans of a traced
// run. Op-class latencies and ratios come from the driver's own samples.
func perLayerMetrics(in layerInput, m map[string]float64, w io.Writer) {
	tr := in.tr
	spans, routerGets := tr.recorded()
	nOps := float64(len(in.ops))
	byLayer := map[string][]span{}
	children := map[uint64][]interval{}
	for _, s := range spans {
		byLayer[s.layer] = append(byLayer[s.layer], s)
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}

	// client: op time split into self time and time blocked in the store
	// the session sees (the union of its store calls, which the client's
	// worker pool may overlap).
	classOps := map[string]float64{}
	classCalls := map[string]float64{}
	var selfNs, waitNs, fsNs int64
	for _, s := range byLayer[layerFS] {
		wait := covered(children[s.id], interval{s.start, s.end})
		waitNs += wait
		selfNs += s.dur() - wait
		fsNs += s.dur()
		classOps[s.method]++
		classCalls[s.method] += float64(len(children[s.id]))
	}
	nFS := float64(len(byLayer[layerFS]))
	m["client.self_ms_per_op"] = ratio(float64(selfNs)/1e6, nFS)
	m["client.store_wait_ms_per_op"] = ratio(float64(waitNs)/1e6, nFS)
	m["client.crypto_ms_per_op"] = ratio(float64(in.c.cryptoNs)/1e6, nOps)
	var opNs int64
	for _, o := range in.ops {
		opNs += o.ns
	}
	m["client.accounted_ratio"] = ratio(float64(fsNs), float64(opNs))
	for _, c := range []string{"create", "stat", "read", "write", "chmod"} {
		m["client.store_calls_per_"+c] = ratio(classCalls[c], classOps[c])
	}

	m["cache.hit_ratio"] = ratio(float64(in.c.cacheHits), float64(in.c.cacheHits+in.c.cacheMisses))
	m["cache.misses_per_read"] = ratio(float64(in.readMisses), classOps["read"])

	// write-behind: calls into the store the sessions see, and the
	// batches that land in the store below it.
	sess := durations(byLayer[layerSess], nil)
	m["ssp.wb.call_ms_p50"] = sess.q(0.50)
	m["ssp.wb.call_ms_p99"] = sess.q(0.99)
	m["ssp.wb.flushes_per_op"] = ratio(float64(in.c.wbFlushes), nOps)
	m["ssp.wb.items_per_flush"] = ratio(float64(in.c.wbItems), float64(in.c.wbFlushes))
	flush := durations(byLayer[layerRemote], func(s span) bool { return s.method == "batchput" })
	m["ssp.wb.flush_ms_p50"] = flush.q(0.50)
	m["ssp.wb.flush_ms_p99"] = flush.q(0.99)

	// shard router: the remote layer when there is more than one SSP.
	var hedged, won, gets float64
	if in.sharded {
		remote := byLayer[layerRemote]
		get := durations(remote, func(s span) bool { return s.method == "get" })
		put := durations(remote, func(s span) bool {
			return s.method == "put" || s.method == "batchput" || s.method == "delete"
		})
		m["shard.get_ms_p50"] = get.q(0.50)
		m["shard.get_ms_p99"] = get.q(0.99)
		m["shard.put_ms_p50"] = put.q(0.50)
		m["shard.fanout"] = ratio(float64(len(byLayer[layerBackend])), float64(len(remote)))
		for _, g := range routerGets {
			gets++
			if len(g.launches) < 2 {
				continue
			}
			hedged++
			if hedgeWon(g.launches) {
				won++
			}
		}
	} else {
		for _, k := range []string{"shard.get_ms_p50", "shard.get_ms_p99", "shard.put_ms_p50", "shard.fanout"} {
			m[k] = 0
		}
	}
	m["shard.hedge_ratio"] = ratio(hedged, gets)
	m["shard.hedge_win_ratio"] = ratio(won, hedged)

	// pipelined RPC client: the taps directly on an ssp.Client.
	var clientSpans []span
	var clientNs, clientErrs int64
	for _, s := range spans {
		if s.client {
			clientSpans = append(clientSpans, s)
			clientNs += s.dur()
			if s.err {
				clientErrs++
			}
		}
	}
	nCalls := float64(len(clientSpans))
	cl := durations(clientSpans, nil)
	m["ssp.client.calls_per_op"] = ratio(nCalls, nOps)
	m["ssp.client.ms_p50"] = cl.q(0.50)
	m["ssp.client.ms_p99"] = cl.q(0.99)
	m["ssp.client.inflight_mean"] = ratio(float64(clientNs), float64(in.elapsedNs))
	m["ssp.client.error_ratio"] = ratio(float64(clientErrs), nCalls)

	m["netsim.bytes_up_per_op"] = ratio(float64(tr.bytesUp.Load()), nOps)
	m["netsim.bytes_down_per_op"] = ratio(float64(tr.bytesDown.Load()), nOps)
	m["wire.writes_per_call"] = ratio(float64(tr.connWrites.Load()), nCalls)

	// server backing store.
	var storeNs, storeBytes int64
	for _, s := range byLayer[layerStore] {
		storeNs += s.dur()
		storeBytes += s.bytesIn
	}
	nStore := float64(len(byLayer[layerStore]))
	m["ssp.store.calls_per_op"] = ratio(nStore, nOps)
	m["ssp.store.us_per_call"] = ratio(float64(storeNs)/1e3, nStore)
	m["ssp.store.bytes_written_per_op"] = ratio(float64(storeBytes), nOps)
	m["ssp.transport_ms_per_call"] = ratio(float64(clientNs-storeNs)/1e6, nCalls)

	m["go.alloc_bytes_per_op"] = ratio(float64(in.c.allocBytes), nOps)
	m["go.gc_pause_ms_per_kop"] = ratio(float64(in.c.gcPauseNs)/1e6, nOps/1000)

	// Server-side store calls run in the SSP, across the wire from any
	// op, and are not linked; the client-side spans without a parent are
	// the work no single op caused: write-behind flushes and the shard
	// router's fan-out and background replica writes.
	var unparented int
	for _, s := range spans {
		if s.layer != layerFS && s.layer != layerStore && s.parent == 0 {
			unparented++
		}
	}
	m["trace.unparented_per_op"] = ratio(float64(unparented), nOps)

	printBreakdown(w, byLayer, children, nFS, in)
}

// hedgeWon reports whether a later-launched replica answered first: the
// earliest successful completion is not the first launch.
func hedgeWon(ls []launch) bool {
	first, winner := 0, -1
	for i, l := range ls {
		if l.start < ls[first].start {
			first = i
		}
		if l.ok && (winner < 0 || l.end < ls[winner].end) {
			winner = i
		}
	}
	return winner >= 0 && winner != first
}

func durations(spans []span, keep func(span) bool) dist {
	ns := make([]int64, 0, len(spans))
	for _, s := range spans {
		if keep == nil || keep(s) {
			ns = append(ns, s.dur())
		}
	}
	return newDist(ns)
}

// printBreakdown writes each layer's span count, self time per op (span
// time minus what its child spans cover) and unparented spans, plus the
// program's own hedge counters beside the decorator-measured ones.
func printBreakdown(w io.Writer, byLayer map[string][]span, children map[uint64][]interval, nFS float64, in layerInput) {
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# layer breakdown over %.0f ops (self = span time minus child spans)\n", nFS)
	for _, l := range layers {
		var self, total int64
		var orphans int
		for _, s := range byLayer[l] {
			c := covered(children[s.id], interval{s.start, s.end})
			self += s.dur() - c
			total += s.dur()
			if s.parent == 0 && l != layerFS {
				orphans++
			}
		}
		fmt.Fprintf(w, "# layer %-8s spans %8d  total %9.3f ms/op  self %9.3f ms/op  unparented %d\n",
			l, len(byLayer[l]), ratio(float64(total)/1e6, nFS), ratio(float64(self)/1e6, nFS), orphans)
	}
	fmt.Fprintf(w, "# program counters: shard.get.hedged %d, shard.get.hedge_won %d, ssp.wb.lane_flushes %d\n",
		in.c.hedged, in.c.hedgeWon, in.c.wbLaneFlushes)
}
