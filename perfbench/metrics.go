package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"vkgraph/vkg"
)

// phaseCounters are the program's own counters read around the timed
// phase: vkg.Metrics, the /metrics text, and the Go runtime.
type phaseCounters struct {
	m    vkg.Metrics
	prom promText
	mem  runtime.MemStats
}

func (r *runner) readCounters() (phaseCounters, error) {
	var pc phaseCounters
	var err error
	if r.front != nil {
		pc.prom, err = scrapeHTTP(http.DefaultClient, r.front.base+"/metrics")
	} else {
		pc.prom, err = scrapeEngine(r.v)
	}
	if err != nil {
		return pc, fmt.Errorf("scraping /metrics: %w", err)
	}
	pc.m = r.v.Metrics()
	runtime.ReadMemStats(&pc.mem)
	return pc, nil
}

// latencies splits the timed records into read and write latencies.
func latencies(recs []rec) (reads, writes []time.Duration) {
	for _, rc := range recs {
		if rc.failed {
			continue
		}
		if rc.kind.isWrite() {
			writes = append(writes, rc.lat)
		} else {
			reads = append(reads, rc.lat)
		}
	}
	return reads, writes
}

// readTiming reports read latency in milliseconds: the median over the
// whole timed phase, and p99 as the median of the p99s of consecutive
// windows of at least 1000 reads each (the fewest that support p99 under
// the ten-beyond rule), so a burst of machine noise confined to one window
// does not move it. A run too short for one such window fails.
func readTiming(recs []rec) (p50, p99 float64, err error) {
	var reads []rec
	for _, rc := range recs {
		if !rc.failed && !rc.kind.isWrite() {
			reads = append(reads, rc)
		}
	}
	if !supports(len(reads), 99) {
		return 0, 0, fmt.Errorf("%d reads cannot support p99 (highest supported: p%v)", len(reads), tailPercentile(len(reads)))
	}
	// Callers record in their own order; window by completion time.
	sort.Slice(reads, func(i, j int) bool { return reads[i].done < reads[j].done })
	lat := func(rs []rec) []float64 {
		ds := make([]time.Duration, len(rs))
		for i, rc := range rs {
			ds[i] = rc.lat
		}
		return durations(ds, time.Millisecond)
	}
	n := min(len(reads)/1000, maxWindows)
	var p99s []float64
	for w := 0; w < n; w++ {
		p99s = append(p99s, percentile(lat(reads[w*len(reads)/n:(w+1)*len(reads)/n]), 99))
	}
	return percentile(lat(reads), 50), median(p99s), nil
}

// maxWindows caps the windows p99 is taken over, and is the number of
// windows qps is taken over.
const maxWindows = 5

// answeredRate is qps: operations answered per second, the median over
// maxWindows equal windows of the timed phase of dur, so a burst of machine
// noise confined to one window does not move it. A window's rate is taken
// between its first and last answer. For the open loop it is the answered
// rate, which falls behind the offered rate when the system saturates.
func answeredRate(recs []rec, dur time.Duration) float64 {
	var n [maxWindows]int
	var first, last [maxWindows]time.Duration
	for _, rc := range recs {
		w := int(maxWindows * rc.done / dur)
		if rc.failed || w >= maxWindows {
			continue
		}
		if n[w] == 0 || rc.done < first[w] {
			first[w] = rc.done
		}
		last[w] = max(last[w], rc.done)
		n[w]++
	}
	rates := make([]float64, maxWindows)
	for w := range n {
		rates[w] = ratio(float64(n[w]-1), (last[w] - first[w]).Seconds())
	}
	return median(rates)
}

// histDeltaMeanUS is the mean, in µs, of the observations a
// vkg.LatencyStats histogram received between two reads.
func histDeltaMeanUS(a, b vkg.LatencyStats) float64 {
	n := float64(b.Count) - float64(a.Count)
	sum := float64(b.Count)*float64(b.Mean) - float64(a.Count)*float64(a.Mean)
	return ratio(sum, n) / 1e3
}

// gcPauseP99US is the p99 of the GC pauses between two MemStats reads
// (at most the last 256, which MemStats keeps).
func gcPauseP99US(a, b *runtime.MemStats) float64 {
	n := b.NumGC - a.NumGC
	if n > 256 {
		n = 256
	}
	var ps []float64
	for i := uint32(0); i < n; i++ {
		ps = append(ps, float64(b.PauseNs[(b.NumGC-i+255)%256])/1e3)
	}
	sort.Float64s(ps)
	return percentile(ps, 99)
}

// traceOverheadPct compares the traced slices of the timed phase with the
// untraced ones: completed operations per second for a closed loop, mean
// latency for the open loop (whose rate is fixed).
func traceOverheadPct(recs []rec, open bool) float64 {
	var n [2]float64
	var lat [2]float64
	for _, rc := range recs {
		i := 0
		if rc.traced {
			i = 1
		}
		n[i]++
		lat[i] += float64(rc.lat)
	}
	if open {
		return 100 * (ratio(ratio(lat[1], n[1]), ratio(lat[0], n[0])) - 1)
	}
	// Both halves last the same time, so counts compare as rates.
	return 100 * (ratio(n[0], n[1]) - 1)
}

type metricSet map[string]metric

func (l metricSet) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// layerMetrics assembles the per-layer metrics of a traced run.
func (r *runner) layerMetrics(b, a phaseCounters, idx vkg.IndexStats, lr layerReplay, rs restartResult) metricSet {
	l := metricSet{}
	spans := r.tr.all()
	m0, m1 := b.m, a.m
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	ops := float64(len(r.recs))

	// serve and the benchmark's client side (open-http only).
	l.set("serve.self_us", median(selfTimes(spans, "serve.Handler", "vkg.Do")), "us")
	l.set("net.client_self_us", median(selfTimes(spans, "net.Client", "serve.Handler")), "us")
	l.set("serve.queue_wait_us", histogramDelta(b.prom, a.prom, "vkg_serve_queue_wait_seconds").mean()*1e6, "us")
	l.set("serve.shed", a.prom.sum("vkg_serve_shed_total")-b.prom.sum("vkg_serve_shed_total"), "count")
	late := make([]time.Duration, len(r.recs))
	for i, rc := range r.recs {
		late[i] = rc.late // 0 in a closed loop
	}
	l.set("loadgen.late_us_p99", percentile(durations(late, time.Microsecond), 99), "us")

	// vkg request path.
	do := sortedCopy(spanDurations(spans, "vkg.Do", ""))
	l.set("vkg.do_us_p50", percentile(do, 50), "us")
	l.set("vkg.do_us_p99", percentile(do, 99), "us")
	hits := d(m0.Cache.Hits, m1.Cache.Hits) + float64(r.cacheAcc.Hits)
	misses := d(m0.Cache.Misses, m1.Cache.Misses) + float64(r.cacheAcc.Misses)
	l.set("core.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("core.coalesced", d(m0.Coalesced, m1.Coalesced), "count")

	// top-k walk and re-rank.
	topk := d(m0.TopKQueries, m1.TopKQueries)
	walks := topk + d(m0.AggregateQueries, m1.AggregateQueries)
	examined := d(m0.CandidatesExamined, m1.CandidatesExamined)
	l.set("core.examined_per_query", ratio(examined, topk), "count")
	l.set("core.pruned_ratio", ratio(d(m0.PrunedByBound, m1.PrunedByBound), examined), "ratio")
	l.set("rtree.leaf_visits_per_query", ratio(d(m0.NodeAccessLeaf, m1.NodeAccessLeaf), walks), "count")
	l.set("rtree.internal_visits_per_query", ratio(d(m0.NodeAccessInternal, m1.NodeAccessInternal), walks), "count")
	l.set("rtree.walk_us", lr.walkUS, "us")
	l.set("rtree.walk_points_per_query", lr.walkPointsPerQuery, "count")
	l.set("rtree.gather_us", lr.gatherUS, "us")
	l.set("jl.apply_us", lr.jlApplyUS, "us")

	// aggregate sampler.
	l.set("core.agg_us_p50", median(spanDurations(spans, "vkg.Do", "agg")), "us")
	l.set("core.agg_sample_ratio", ratio(d(m0.AggPointsAccessed, m1.AggPointsAccessed), d(m0.AggBallPoints, m1.AggBallPoints)), "ratio")

	// cracking and locks.
	crackQ := d(m0.CrackQueries, m1.CrackQueries)
	l.set("core.crack_splits", d(m0.CrackSplits, m1.CrackSplits), "count")
	l.set("core.crack_nodes_created", d(m0.CrackNodesCreated, m1.CrackNodesCreated), "count")
	l.set("core.crack_query_ratio", ratio(crackQ, crackQ+d(m0.WarmQueries, m1.WarmQueries)), "ratio")
	l.set("core.crack_lock_hold_us", histDeltaMeanUS(m0.CrackWriteLock, m1.CrackWriteLock), "us")
	l.set("core.write_lock_wait_us", histDeltaMeanUS(m0.WriteLockWait, m1.WriteLockWait), "us")
	l.set("core.read_lock_wait_us", histDeltaMeanUS(m0.ReadLockWait, m1.ReadLockWait), "us")
	l.set("rtree.crack_split_us", lr.crackSplitUS, "us")

	// updates and the WAL.
	l.set("core.addfact_us", median(spanDurations(spans, "vkg.AddFact", "")), "us")
	l.set("core.setattr_us", median(spanDurations(spans, "vkg.SetEntityAttr", "")), "us")
	l.set("core.insert_us", median(spanDurations(spans, "vkg.InsertEntity", "")), "us")
	l.set("wal.records", float64(rs.walRecords), "count")
	l.set("wal.bytes_per_write", ratio(float64(rs.walBytes), float64(rs.walRecords)), "B")
	l.set("wal.fsync_us_p99", rs.fsyncP99US, "us")
	l.set("wal.replay_ms", float64(rs.replay)/1e6, "ms")
	l.set("wal.replayed_records", float64(rs.replayed), "count")
	l.set("core.restart_load_ms", float64(rs.total-rs.replay)/1e6, "ms")
	l.set("core.snapshot_mb", rs.snapshotMB, "MiB")

	// Go runtime, over the timed phase.
	l.set("runtime.allocs_per_op", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), ops), "count")
	l.set("runtime.alloc_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops), "B")
	l.set("runtime.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC), "count")
	l.set("runtime.gc_pause_p99_us", gcPauseP99US(&b.mem, &a.mem), "us")

	// index size.
	l.set("index.nodes", float64(idx.TotalNodes), "count")
	l.set("index.bytes", float64(idx.SizeBytes+idx.PackedBytes), "B")

	_, writes := latencies(r.recs)
	w := durations(writes, time.Millisecond)
	l.set("vkg.write_p50_ms", percentile(w, 50), "ms")
	l.set("vkg.write_p99_ms", percentile(w, 99), "ms")
	l.set("trace.overhead_pct", traceOverheadPct(r.recs, r.w.Loop == "open-http"), "%")
	return l
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
