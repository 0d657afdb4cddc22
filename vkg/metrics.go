package vkg

import (
	"fmt"
	"strings"
	"time"

	"vkgraph/internal/obs"
)

// LatencyStats summarizes a latency distribution: the observation count and
// the mean/median/tail durations.
type LatencyStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

func latencyStats(h obs.HistSnapshot) LatencyStats {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return LatencyStats{
		Count: h.Count,
		Mean:  sec(h.Mean()),
		P50:   sec(h.P50),
		P95:   sec(h.P95),
		P99:   sec(h.P99),
	}
}

// Metrics is a structured point-in-time view of every engine counter: query
// volumes and latency distributions, the paper's cost counters (node
// accesses of Lemma 3, candidates examined, a and b of Theorem 4), the
// cracking activity of Section IV, and the serving-layer cache/coalescing/
// lock statistics. Counters accumulate from Build; LatencyStats percentiles
// are over all observations so far.
type Metrics struct {
	// TopKQueries and AggregateQueries count queries executed against the
	// index; answers served from the result cache or coalesced onto another
	// in-flight execution are counted by Cache.Hits and Coalesced instead.
	// QueryErrors counts rejections (unknown ids, execution failures).
	TopKQueries      uint64
	AggregateQueries uint64
	QueryErrors      uint64

	TopKLatency      LatencyStats
	AggregateLatency LatencyStats

	// CandidatesExamined counts entities whose exact S1 distance was
	// computed — the dominant query cost. PrunedByBound counts candidate
	// refinements abandoned early by the running kth-distance bound.
	CandidatesExamined uint64
	PrunedByBound      uint64

	// NodeAccess* count index nodes visited by traversals, by node type —
	// the access cost the paper's Lemma 3 bounds.
	NodeAccessInternal uint64
	NodeAccessLeaf     uint64
	NodeAccessPending  uint64

	// AggPointsAccessed (a) and AggBallPoints (b) are summed over aggregate
	// queries (Theorem 4); AggMaxAccessCapped counts queries whose sample
	// was truncated by MaxAccess.
	AggPointsAccessed  uint64
	AggBallPoints      uint64
	AggMaxAccessCapped uint64

	// CrackQueries/WarmQueries split queries by whether their region still
	// needed cracking; a converging index drives the cold share toward 0.
	CrackQueries      uint64
	WarmQueries       uint64
	CrackSplits       uint64
	CrackNodesCreated uint64
	// CrackWriteLock is the time spent holding the engine write lock to
	// crack, per cracking query.
	CrackWriteLock LatencyStats

	// Cache and Coalesced cover the serving layer: the top-k result cache
	// and the singleflight coalescing of duplicate in-flight requests.
	Cache     CacheStats
	Coalesced uint64

	// ReadLockWait and WriteLockWait measure contention on the engine lock
	// (WriteLockWait includes the cracking path's write-lock waits).
	ReadLockWait  LatencyStats
	WriteLockWait LatencyStats

	// Memory is the memory-layout view of the index: how many bytes the
	// packed coordinate mirror occupies, the node-arena occupancy, the
	// resident point count, and the runtime's recent GC pause tail.
	Memory MemoryStats

	// Index is the current index structure (also available via IndexStats).
	Index IndexStats

	// WAL is the write-ahead log state: appends and rotations on the write
	// side, replay and truncation counters from the most recent load.
	WAL WALStats

	// DroppedAttributes lists attributes the snapshot named but the loaded
	// graph lacked; the load dropped them (degraded) instead of failing.
	DroppedAttributes []string

	// Generation is the graph mutation counter; cached answers are pinned
	// to the generation they were computed at.
	Generation uint64
}

// MemoryStats is the memory-layout block of Metrics (see WithPackedCoords
// and the DESIGN.md "Memory layout" section).
type MemoryStats struct {
	// PackedBytes is the size of the packed float32 coordinate mirror
	// (0 when WithPackedCoords(false)).
	PackedBytes int
	// ArenaNodesInUse and ArenaNodesFree count tree-node arena records;
	// free records are reusable capacity already paid for (freelist plus
	// the unallocated tail of the newest slab).
	ArenaNodesInUse int
	ArenaNodesFree  int
	// ResidentPoints is the number of S2 points held by the point set.
	ResidentPoints int
	// GCPauseP99 is the 99th-percentile stop-the-world GC pause of this
	// process since start, from runtime/metrics (0 before the first GC).
	GCPauseP99 time.Duration
}

// CacheHitRate returns hits / (hits + misses), or 0 before any lookup.
func (m Metrics) CacheHitRate() float64 {
	total := m.Cache.Hits + m.Cache.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Cache.Hits) / float64(total)
}

// Metrics captures the current engine counters. It is race-clean under
// concurrent queries but not an instantaneous cut: counters are read one
// atomic load at a time.
func (v *VKG) Metrics() Metrics {
	s := v.eng.MetricsSnapshot()
	return Metrics{
		TopKQueries:        s.TopKQueries,
		AggregateQueries:   s.AggregateQueries,
		QueryErrors:        s.QueryErrors,
		TopKLatency:        latencyStats(s.TopKLatency),
		AggregateLatency:   latencyStats(s.AggregateLatency),
		CandidatesExamined: s.CandidatesExamined,
		PrunedByBound:      s.PrunedByBound,
		NodeAccessInternal: s.NodeAccessInternal,
		NodeAccessLeaf:     s.NodeAccessLeaf,
		NodeAccessPending:  s.NodeAccessPending,
		AggPointsAccessed:  s.AggPointsAccessed,
		AggBallPoints:      s.AggBallPoints,
		AggMaxAccessCapped: s.AggMaxAccessCapped,
		CrackQueries:       s.CrackQueries,
		WarmQueries:        s.WarmQueries,
		CrackSplits:        s.CrackSplits,
		CrackNodesCreated:  s.CrackNodesCreated,
		CrackWriteLock:     latencyStats(s.CrackWriteLock),
		Cache:              CacheStats{Hits: s.CacheHits, Misses: s.CacheMisses, Entries: s.CacheEntries},
		Coalesced:          s.Coalesced,
		ReadLockWait:       latencyStats(s.ReadLockWait),
		WriteLockWait:      latencyStats(s.WriteLockWait),
		Memory: MemoryStats{
			PackedBytes:     s.PackedBytes,
			ArenaNodesInUse: s.ArenaNodesInUse,
			ArenaNodesFree:  s.ArenaNodesFree,
			ResidentPoints:  s.ResidentPoints,
			GCPauseP99:      time.Duration(s.GCPauseP99 * float64(time.Second)),
		},
		Index:             v.IndexStats(),
		WAL:               walStats(s.WAL),
		DroppedAttributes: s.DroppedAttrs,
		Generation:        s.Generation,
	}
}

// ResetCache drops every cached top-k answer and zeroes the cache hit/miss
// counters. Benchmarks use it to separate cold-index from warm-cache
// throughput.
func (v *VKG) ResetCache() { v.eng.ResetCache() }

// TraceSpan is one timed stage of a traced query.
type TraceSpan struct {
	// Stage is one of "cache", "validate", "transform", "search", "refine",
	// "crack", "estimate", "wait".
	Stage string
	// Start is the offset from the beginning of the query.
	Start time.Duration
	Dur   time.Duration
}

// QueryTrace is the per-query breakdown returned when Query.Trace is set:
// where the time went, stage by stage, plus the cost counters the paper's
// analysis is stated in. Stages are contiguous, so span durations sum to
// Wall.
type QueryTrace struct {
	// TraceID is the query's 128-bit trace id (32 hex digits) — the handle
	// for /traces/<id> on the ops endpoint and the id to propagate in a
	// traceparent header.
	TraceID string
	Wall    time.Duration
	Spans   []TraceSpan
	// LeaderTraceID links a coalesced query to the trace of the in-flight
	// execution it shared; empty otherwise.
	LeaderTraceID string

	// CacheHit marks a query answered from the result cache; Coalesced one
	// that shared another in-flight execution.
	CacheHit  bool
	Coalesced bool

	// Examined counts candidates whose S1 distance was computed;
	// PrunedByBound those abandoned early by the kth-distance bound.
	Examined      int
	PrunedByBound int
	// CrackLockWait and CrackLockHeld are the cracking step's wait for the
	// engine write lock and the time it held it; Splits and NodesCreated
	// its structural work. All four are 0 for a warm region.
	CrackLockWait time.Duration
	CrackLockHeld time.Duration
	Splits        int
	NodesCreated  int
	// Accessed and BallSize are a and b of an aggregate query (Theorem 4).
	Accessed int
	BallSize int
}

// String renders a one-line stage breakdown.
func (t *QueryTrace) String() string {
	if t == nil {
		return "<no trace>"
	}
	parts := make([]string, 0, len(t.Spans))
	for _, s := range t.Spans {
		parts = append(parts, fmt.Sprintf("%s %v", s.Stage, s.Dur.Round(time.Microsecond)))
	}
	return fmt.Sprintf("%v (%s)", t.Wall.Round(time.Microsecond), strings.Join(parts, ", "))
}

func convertTrace(tr *obs.QueryTrace) *QueryTrace {
	if tr == nil {
		return nil
	}
	out := &QueryTrace{
		TraceID:       tr.TraceID().String(),
		Wall:          tr.Wall,
		CacheHit:      tr.CacheHit,
		Coalesced:     tr.Coalesced,
		Examined:      tr.Examined,
		PrunedByBound: tr.PrunedByBound,
		CrackLockWait: tr.CrackLockWait,
		CrackLockHeld: tr.CrackLockHeld,
		Splits:        tr.Splits,
		NodesCreated:  tr.NodesCreated,
		Accessed:      tr.Accessed,
		BallSize:      tr.BallSize,
	}
	if !tr.LeaderTrace.IsZero() {
		out.LeaderTraceID = tr.LeaderTrace.String()
	}
	for _, s := range tr.Spans {
		out.Spans = append(out.Spans, TraceSpan{Stage: s.Stage, Start: s.Start, Dur: s.Dur})
	}
	return out
}

// SetSlowQueryThreshold enables the slow-query log: queries slower than d
// are recorded with their stage breakdown and served on the ops endpoint's
// /slowlog page. While enabled, every query is traced (the per-query cost is
// two timestamps per stage). A non-positive d disables the log.
func (v *VKG) SetSlowQueryThreshold(d time.Duration) { v.eng.SlowLog().SetThreshold(d) }

// SlowQuery is one entry of the slow-query log.
type SlowQuery struct {
	// Time is when the query started.
	Time    time.Time
	Query   string
	Latency time.Duration
	// TraceID links the entry to its retained trace at /traces/<id> (empty
	// when the query ran untraced).
	TraceID string
	Trace   *QueryTrace
}

// SlowQueries returns the recorded slow queries, newest first.
func (v *VKG) SlowQueries() []SlowQuery {
	entries := v.eng.SlowLog().Entries()
	out := make([]SlowQuery, 0, len(entries))
	for _, e := range entries {
		sq := SlowQuery{Time: e.Time, Query: e.Query, Latency: e.Latency, Trace: convertTrace(e.Trace)}
		if !e.TraceID.IsZero() {
			sq.TraceID = e.TraceID.String()
		}
		out = append(out, sq)
	}
	return out
}

// TraceStats are the trace store's retention counters: how many query
// traces were offered, how many were kept and why (forced, tail status,
// slow, head sample), and the store's current occupancy.
type TraceStats struct {
	Offered    uint64
	Kept       uint64
	KeptForced uint64
	KeptTail   uint64
	KeptSlow   uint64
	KeptHead   uint64
	Evicted    uint64
	Resident   int
}

// SetTraceHeadRate sets the head-sampling fraction of the trace store: that
// share of fast, successful queries is retained for /traces (clamped to
// [0, 1]; errors and slow queries are always retained regardless). The
// default is 0 — embedded engines pay nothing until a server arms it.
func (v *VKG) SetTraceHeadRate(rate float64) { v.eng.Traces().SetHeadRate(rate) }

// SetTraceSlowThreshold sets the latency above which a query's trace is
// always retained (default 100ms); a non-positive d disables slow retention.
func (v *VKG) SetTraceSlowThreshold(d time.Duration) { v.eng.Traces().SetSlowThreshold(d) }

// TraceStats returns the trace store's retention counters.
func (v *VKG) TraceStats() TraceStats {
	s := v.eng.Traces().Stats()
	return TraceStats{
		Offered: s.Offered, Kept: s.Kept, KeptForced: s.KeptForced, KeptTail: s.KeptTail,
		KeptSlow: s.KeptSlow, KeptHead: s.KeptHead, Evicted: s.Evicted, Resident: s.Resident,
	}
}
