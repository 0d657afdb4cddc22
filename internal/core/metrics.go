package core

import (
	"math"
	"runtime/metrics"

	"vkgraph/internal/obs"
	"vkgraph/internal/rtree"
)

// engineMetrics is the engine's metric surface: every hot-path counter the
// paper's cost analysis is stated in (node accesses, candidates examined,
// splits performed, accesses under MaxAccess) plus the serving-layer ones
// (cache, singleflight, lock waits, latency histograms). All increments are
// atomic and lock-free; the registry only locks at registration and scrape
// time, so instrumentation adds no serialization to the query paths.
type engineMetrics struct {
	reg  *obs.Registry
	slow *obs.SlowLog

	topkQueries *obs.Counter
	aggQueries  *obs.Counter
	queryErrors *obs.Counter

	latTopK *obs.Histogram
	latAgg  *obs.Histogram

	examined *obs.Counter // candidates whose S1 distance was computed
	pruned   *obs.Counter // refinements aborted early by the kth-distance bound

	// nodeAccess is wired into the tree (SetAccessCounters): internal/leaf/
	// pending node visits of every WalkWithin and NearestSeeds traversal.
	nodeAccess rtree.AccessCounters

	aggAccessed *obs.Counter // a: ball points materialized in S1
	aggBall     *obs.Counter // b: probability-ball sizes
	aggCapped   *obs.Counter // aggregate queries truncated by MaxAccess

	crackQueries *obs.Counter   // queries whose region still needed splits
	warmQueries  *obs.Counter   // queries served entirely from warm regions
	crackSplits  *obs.Counter   // binary splits performed by cracking
	crackNodes   *obs.Counter   // tree nodes created by cracking
	crackLock    *obs.Histogram // seconds holding the write lock to crack

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	sfCoalesced *obs.Counter

	lockReadWait  *obs.Histogram // seconds waiting to acquire the read lock
	lockWriteWait *obs.Histogram // seconds waiting to acquire a write lock

	// walFsync observes every durability barrier the WAL writer issues
	// (per-append under WALSyncAlways, per-tick under WALSyncInterval).
	walFsync *obs.Histogram
}

func newEngineMetrics(e *Engine) *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{reg: r, slow: obs.NewSlowLog(128)}

	m.topkQueries = r.Counter("vkg_queries_total", "Queries answered, by kind.", obs.Label{Key: "kind", Value: "topk"})
	m.aggQueries = r.Counter("vkg_queries_total", "Queries answered, by kind.", obs.Label{Key: "kind", Value: "aggregate"})
	m.queryErrors = r.Counter("vkg_query_errors_total", "Queries rejected by validation or execution errors.")

	m.latTopK = r.Histogram("vkg_query_latency_seconds", "Query latency, by kind.", nil, obs.Label{Key: "kind", Value: "topk"})
	m.latAgg = r.Histogram("vkg_query_latency_seconds", "Query latency, by kind.", nil, obs.Label{Key: "kind", Value: "aggregate"})

	m.examined = r.Counter("vkg_topk_candidates_examined_total", "Candidate entities whose S1 distance was computed (Algorithm 3).")
	m.pruned = r.Counter("vkg_topk_pruned_by_bound_total", "Candidate refinements aborted early by the running kth-distance bound.")

	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Internal.Load, obs.Label{Key: "type", Value: "internal"})
	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Leaf.Load, obs.Label{Key: "type", Value: "leaf"})
	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Pending.Load, obs.Label{Key: "type", Value: "pending"})

	m.aggAccessed = r.Counter("vkg_aggregate_points_accessed_total", "Ball points materialized in S1 by aggregate queries (a of Theorem 4).")
	m.aggBall = r.Counter("vkg_aggregate_ball_points_total", "Probability-ball sizes summed over aggregate queries (b of Theorem 4).")
	m.aggCapped = r.Counter("vkg_aggregate_maxaccess_capped_total", "Aggregate queries whose sample was truncated by MaxAccess.")

	m.crackQueries = r.Counter("vkg_crack_queries_total", "Queries by whether their region still needed cracking.", obs.Label{Key: "region", Value: "cold"})
	m.warmQueries = r.Counter("vkg_crack_queries_total", "Queries by whether their region still needed cracking.", obs.Label{Key: "region", Value: "warm"})
	m.crackSplits = r.Counter("vkg_crack_splits_total", "Binary splits performed by query-driven cracking.")
	m.crackNodes = r.Counter("vkg_crack_nodes_created_total", "Index nodes created by query-driven cracking.")
	m.crackLock = r.Histogram("vkg_crack_write_lock_seconds", "Time holding the engine write lock to crack the index.", nil)

	m.cacheHits = r.Counter("vkg_cache_hits_total", "Top-k result cache hits.")
	m.cacheMisses = r.Counter("vkg_cache_misses_total", "Top-k result cache misses.")
	r.GaugeFunc("vkg_cache_entries", "Resident top-k result cache entries.", func() float64 {
		return float64(e.CacheStats().Entries)
	})
	m.sfCoalesced = r.Counter("vkg_singleflight_coalesced_total", "Top-k requests that shared another in-flight execution.")

	m.lockReadWait = r.Histogram("vkg_lock_wait_seconds", "Time waiting to acquire the engine lock, by mode.", nil, obs.Label{Key: "mode", Value: "read"})
	m.lockWriteWait = r.Histogram("vkg_lock_wait_seconds", "Time waiting to acquire the engine lock, by mode.", nil, obs.Label{Key: "mode", Value: "write"})

	stats := func(f func(obs.TraceStoreStats) uint64) func() uint64 {
		return func() uint64 { return f(e.traces.Stats()) }
	}
	r.CounterFunc("vkg_trace_records_offered_total", "Trace records offered to the trace store.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.Offered }))
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptForced }), obs.Label{Key: "reason", Value: "forced"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptTail }), obs.Label{Key: "reason", Value: "tail"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptSlow }), obs.Label{Key: "reason", Value: "slow"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptHead }), obs.Label{Key: "reason", Value: "head"})
	r.CounterFunc("vkg_trace_records_evicted_total", "Retained trace records overwritten by newer ones.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.Evicted }))
	r.GaugeFunc("vkg_trace_store_resident", "Trace records currently retained.", func() float64 {
		return float64(e.traces.Len())
	})

	// Write-ahead log counters: the append side reads the walState atomics
	// directly (registered before the log is armed — they are embedded by
	// value on the engine), the replay side describes the warm-up of the
	// most recent load.
	m.walFsync = r.Histogram("vkg_wal_fsync_seconds", "WAL fsync latency (per append under sync=always, per tick under sync=interval).", nil)
	r.CounterFunc("vkg_wal_appended_records_total", "Records appended to the write-ahead log.", e.wal.appended.Load)
	r.CounterFunc("vkg_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", e.wal.bytes.Load)
	r.CounterFunc("vkg_wal_rotations_total", "Write-ahead log rotations (one per WAL-armed snapshot).", e.wal.rotations.Load)
	r.CounterFunc("vkg_wal_append_errors_total", "Records lost to WAL append failures (including records skipped while disarmed by a sticky error).", e.wal.appendErrs.Load)
	r.CounterFunc("vkg_wal_replay_records_total", "WAL records replayed at load to warm the index.", e.wal.replayRecords.Load)
	r.CounterFunc("vkg_wal_replay_dropped_bytes_total", "Torn or corrupt WAL suffix bytes truncated at load.", e.wal.replayDropped.Load)
	r.CounterFunc("vkg_wal_replay_truncations_total", "Loads that truncated a torn or corrupt WAL suffix.", e.wal.replayTorn.Load)
	r.CounterFunc("vkg_wal_replay_stale_total", "WAL files discarded whole for a snapshot-generation mismatch.", e.wal.replayStale.Load)
	r.GaugeFunc("vkg_wal_replay_seconds", "Wall time the most recent load spent replaying the WAL.", func() float64 {
		return float64(e.wal.replayNanos.Load()) / 1e9
	})

	// Degraded-load visibility: attributes the snapshot named but the
	// loaded graph did not carry (dropped instead of failing the load).
	r.GaugeFunc("vkg_load_dropped_attrs", "Attributes dropped at load because the snapshot named them but the graph lacked their columns.", func() float64 {
		return float64(len(e.droppedAttrs))
	})

	r.GaugeFunc("vkg_graph_generation", "Graph mutation counter (AddFact/InsertEntity).", func() float64 {
		return float64(e.gen.Load())
	})
	r.GaugeFunc("vkg_index_nodes", "Current index node count.", func() float64 {
		return float64(e.IndexStats().TotalNodes)
	})
	r.GaugeFunc("vkg_index_size_bytes", "Index size in bytes (arena slabs plus referenced heap).", func() float64 {
		return float64(e.IndexStats().SizeBytes)
	})

	// Memory-layout gauges: the observable form of the "flat GC profile"
	// claim — packed mirror size, arena occupancy, resident points, and the
	// runtime's GC pause tail.
	r.GaugeFunc("vkg_mem_packed_bytes", "Bytes held by the packed float32 coordinate mirror (0 when PackedCoords is off).", func() float64 {
		return float64(e.PackedBytes())
	})
	r.GaugeFunc("vkg_mem_resident_points", "Points resident in the shared S2 point set (including tombstones).", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(e.ps.N())
	})
	r.GaugeFunc("vkg_mem_arena_nodes", "Index node-arena records, by state.", func() float64 {
		inUse, _ := e.arenaNodes()
		return float64(inUse)
	}, obs.Label{Key: "state", Value: "inuse"})
	r.GaugeFunc("vkg_mem_arena_nodes", "Index node-arena records, by state.", func() float64 {
		_, free := e.arenaNodes()
		return float64(free)
	}, obs.Label{Key: "state", Value: "free"})
	r.GaugeFunc("vkg_gc_pause_p99_seconds", "99th-percentile stop-the-world GC pause since process start (runtime/metrics).", gcPauseP99)
	return m
}

// arenaNodes reports the tree's arena occupancy under the read lock.
func (e *Engine) arenaNodes() (inUse, free int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inUse, free, _ = e.tree.ArenaStats()
	return inUse, free
}

// gcPauseP99 reads the runtime's GC pause histogram and returns its 99th
// percentile in seconds (0 before the first collection).
func gcPauseP99() float64 {
	sample := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := sample[0].Value.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Buckets has one more entry than Counts; the bucket's upper
			// edge bounds the percentile. The boundary buckets' edges may
			// be infinite — fall back to the finite edge.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// Registry returns the engine's metric registry (for the ops HTTP handler
// and tests).
func (e *Engine) Registry() *obs.Registry { return e.met.reg }

// SlowLog returns the engine's slow-query log. Setting a positive threshold
// enables it and turns on per-query tracing so logged entries carry their
// stage breakdown.
func (e *Engine) SlowLog() *obs.SlowLog { return e.met.slow }

// Traces returns the engine's trace store: the bounded ring of retained
// query traces behind the /traces ops endpoint. Head sampling starts
// disabled; servers arm it via Traces().SetHeadRate.
func (e *Engine) Traces() *obs.TraceStore { return e.traces }

// MetricsSnapshot is a structured point-in-time view of every engine
// counter, suitable for programmatic consumption (vkg.Metrics wraps it).
type MetricsSnapshot struct {
	TopKQueries      uint64
	AggregateQueries uint64
	QueryErrors      uint64

	TopKLatency      obs.HistSnapshot
	AggregateLatency obs.HistSnapshot

	CandidatesExamined uint64
	PrunedByBound      uint64

	NodeAccessInternal uint64
	NodeAccessLeaf     uint64
	NodeAccessPending  uint64

	AggPointsAccessed  uint64
	AggBallPoints      uint64
	AggMaxAccessCapped uint64

	CrackQueries      uint64
	WarmQueries       uint64
	CrackSplits       uint64
	CrackNodesCreated uint64
	CrackWriteLock    obs.HistSnapshot

	CacheHits     uint64
	CacheMisses   uint64
	CacheEntries  int
	Coalesced     uint64
	ReadLockWait  obs.HistSnapshot
	WriteLockWait obs.HistSnapshot

	// Memory layout: the packed-mirror size, node-arena occupancy, resident
	// point count, and the runtime's GC pause tail —
	// the observable side of the packed/arena storage.
	PackedBytes     int
	ArenaNodesInUse int
	ArenaNodesFree  int
	ResidentPoints  int
	GCPauseP99      float64

	// Traces are the trace store's retention counters.
	Traces obs.TraceStoreStats

	// WAL is the write-ahead log state: append/rotation counters on the
	// write side, replay/truncation counters from the most recent load.
	WAL WALStats

	// DroppedAttrs lists attributes the snapshot named but the loaded
	// graph lacked; the load dropped them instead of failing.
	DroppedAttrs []string

	Generation uint64
}

// MetricsSnapshot captures the current engine counters. Concurrent queries
// may land between the atomic reads; the snapshot is race-clean but not an
// instantaneous cut.
func (e *Engine) MetricsSnapshot() MetricsSnapshot {
	m := e.met
	cs := e.CacheStats()
	arenaInUse, arenaFree := e.arenaNodes()
	e.mu.RLock()
	packedBytes, resident := e.ps.PackedBytes(), e.ps.N()
	e.mu.RUnlock()
	return MetricsSnapshot{
		TopKQueries:        m.topkQueries.Value(),
		AggregateQueries:   m.aggQueries.Value(),
		QueryErrors:        m.queryErrors.Value(),
		TopKLatency:        m.latTopK.Snapshot(),
		AggregateLatency:   m.latAgg.Snapshot(),
		CandidatesExamined: m.examined.Value(),
		PrunedByBound:      m.pruned.Value(),
		NodeAccessInternal: m.nodeAccess.Internal.Load(),
		NodeAccessLeaf:     m.nodeAccess.Leaf.Load(),
		NodeAccessPending:  m.nodeAccess.Pending.Load(),
		AggPointsAccessed:  m.aggAccessed.Value(),
		AggBallPoints:      m.aggBall.Value(),
		AggMaxAccessCapped: m.aggCapped.Value(),
		CrackQueries:       m.crackQueries.Value(),
		WarmQueries:        m.warmQueries.Value(),
		CrackSplits:        m.crackSplits.Value(),
		CrackNodesCreated:  m.crackNodes.Value(),
		CrackWriteLock:     m.crackLock.Snapshot(),
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheEntries:       cs.Entries,
		Coalesced:          m.sfCoalesced.Value(),
		ReadLockWait:       m.lockReadWait.Snapshot(),
		WriteLockWait:      m.lockWriteWait.Snapshot(),
		PackedBytes:        packedBytes,
		ArenaNodesInUse:    arenaInUse,
		ArenaNodesFree:     arenaFree,
		ResidentPoints:     resident,
		GCPauseP99:         gcPauseP99(),
		Traces:             e.traces.Stats(),
		WAL:                e.WALStats(),
		DroppedAttrs:       e.DroppedAttrs(),
		Generation:         e.gen.Load(),
	}
}
