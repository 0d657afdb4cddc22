package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// rec is the record of one timed operation.
type rec struct {
	kind   opKind
	lat    time.Duration // from the call, or (open loop, queued) from the due time
	late   time.Duration // open loop: how late the generator sent it
	queued bool          // open loop: its connection was still busy at its due time
	done   time.Duration // completion, from the start of the timed phase
	traced bool
	failed bool
}

// answer is a timed answer kept for checking after the timed phase.
type answer struct {
	q   vkg.Query
	key key
	res *vkg.Result
}

type runner struct {
	cfg     *config
	w       workload
	seed    int64
	dur     time.Duration
	traceOn bool
	tr      *tracer // nil unless traceOn
	tmp     string  // per-run directory for snapshots and logs

	g     *kg.Graph
	v     *vkg.VKG
	front *front // open-http only

	keys       []key // the workload's keys, in seed order
	checkKeys  []key // the fixed accuracy sample, in check-seed order
	recs       []rec // timed phase
	phaseStart time.Time
	cacheAcc   vkg.CacheStats // cache counters cleared by ResetCache during the timed phase

	mu       sync.Mutex // guards samples during the timed phase
	samples  []answer
	httpKeep []httpSample

	attempted, failed int
	problems          []string

	e2e   map[string]metric
	layer map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) snapshotPath() string { return filepath.Join(r.tmp, "anchor.vkg") }

func (r *runner) walConfig() vkg.WALConfig {
	return vkg.WALConfig{Sync: vkg.WALSyncInterval, SyncInterval: r.w.walInterval()}
}

// setupRepeats is how many times setup at least runs. setupBudget is the
// set-up time after which it stops repeating once it has done that many; a
// cheap set-up repeats more often, up to three times setupRepeats.
const (
	setupRepeats = 5
	setupBudget  = 2 * time.Second
)

// setup runs the set-up at least setupRepeats times and returns the
// median, keeping the last engine. One set-up is dataset and model load
// from the cache plus vkg.Build, then the listener start (open-http) or the
// anchor snapshot write (cold workloads): the time until the first request
// can be served.
func (r *runner) setup() (float64, error) {
	var times []float64
	var spent time.Duration
	for i := 0; i < setupRepeats || (spent < setupBudget && i < 3*setupRepeats); i++ {
		if err := r.teardown(); err != nil {
			return 0, err
		}
		// Collect the previous repeat's engine now, not inside the next
		// timed set-up.
		runtime.GC()
		start := time.Now()
		g, m, err := loadDataset(r.w)
		if err != nil {
			return 0, err
		}
		v, err := build(g, m, r.w.Attr)
		if err != nil {
			return 0, err
		}
		r.g, r.v = g, v
		switch {
		case r.w.Loop == "open-http":
			if r.front, err = startFront(v, r.tr); err != nil {
				return 0, err
			}
		case !r.w.Converge:
			sp := r.tr.start("vkg.EnableWAL", "", 0, 0)
			err = v.EnableWAL(r.snapshotPath(), r.walConfig())
			sp.end()
			if err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		times = append(times, d.Seconds())
		spent += d
	}
	return median(times), nil
}

func (r *runner) teardown() error {
	if r.front != nil {
		if err := r.front.close(); err != nil {
			return err
		}
		r.front = nil
	}
	if r.v != nil {
		if err := r.v.CloseWAL(); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(r.tmp); err != nil {
		return err
	}
	return os.MkdirAll(r.tmp, 0o755)
}

// converge runs the workload's keys once, in order, from a single caller,
// so the converged index is the same on every run of a seed, then clears
// the result cache. A workload that aggregates also runs, after the top-k
// pass, both aggregates (AVG and COUNT) of every key its timed phase
// aggregates over: an aggregate cracks its own ball, which is not the
// top-k ball, and the timed phase must find it cracked already.
func (r *runner) converge(ctx context.Context) error {
	start := time.Now()
	m0 := r.v.Metrics()
	qs := make([]vkg.Query, 0, len(r.keys))
	for _, k := range r.keys {
		qs = append(qs, topKQuery(k))
	}
	if r.w.Mix[opAgg.String()] > 0 {
		for _, k := range r.attrKeys() {
			qs = append(qs, r.w.aggQuery(k, true), r.w.aggQuery(k, false))
		}
	}
	for _, q := range qs {
		if _, err := r.v.Do(ctx, q); err != nil {
			return fmt.Errorf("convergence query %+v: %w", q, err)
		}
	}
	m1 := r.v.Metrics()
	r.v.ResetCache()
	topk := float64(m1.TopKQueries - m0.TopKQueries)
	walks := topk + float64(m1.AggregateQueries-m0.AggregateQueries)
	got := expected{
		Workload:         r.w.Name,
		Seed:             r.seed,
		StructureHash:    fmt.Sprintf("%016x", r.v.Engine().StructureHash()),
		Nodes:            r.v.IndexStats().TotalNodes,
		Splits:           m1.CrackSplits - m0.CrackSplits,
		ExaminedPerQuery: round4(float64(m1.CandidatesExamined-m0.CandidatesExamined) / topk),
		LeafPerQuery:     round4(float64(m1.NodeAccessLeaf-m0.NodeAccessLeaf) / walks),
	}
	fmt.Fprintf(os.Stderr, "perfbench: converged %s seed %d in %v (%d queries): structure_hash=%s nodes=%d splits=%d examined_per_query=%.4f leaf_per_query=%.4f\n",
		got.Workload, got.Seed, time.Since(start).Round(time.Millisecond), len(qs), got.StructureHash, got.Nodes, got.Splits, got.ExaminedPerQuery, got.LeafPerQuery)
	if want, ok := r.cfg.expectedFor(r.w.Name, r.seed); ok {
		if want != got {
			fmt.Fprintf(os.Stderr, "perfbench: FLAG: convergence deviates from workloads.json: want %+v\n", want)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: convergence matches workloads.json\n")
		}
	}
	return nil
}

// round4 rounds to the four decimals workloads.json records.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// tracedAt reports whether an op started (or due) at t falls in a traced
// slice. A traced run cuts the timed phase into eight slices and traces
// slices 2, 3, 6 and 7 (ABBAABBA), so a drift over the phase cancels out
// of the traced-against-untraced comparison.
func (r *runner) tracedAt(t time.Time) bool {
	if !r.traceOn {
		return false
	}
	s := int(8 * t.Sub(r.phaseStart) / r.dur)
	return s == 1 || s == 2 || s == 5 || s == 6
}

// exec runs one in-process op, inside a span when traced.
func (r *runner) exec(ctx context.Context, o op, traced bool) (*vkg.Result, error) {
	var t *tracer
	if traced {
		t = r.tr
	}
	switch o.kind {
	case opTopK, opAgg:
		sp := t.start("vkg.Do", o.kind.String(), 0, 0)
		defer sp.end()
		return r.v.Do(ctx, o.q)
	case opAddFact:
		sp := t.start("vkg.AddFact", "", 0, 0)
		defer sp.end()
		return nil, r.v.AddFact(o.fact.h, o.fact.r, o.fact.t)
	case opSetAttr:
		sp := t.start("vkg.SetEntityAttr", "", 0, 0)
		defer sp.end()
		return nil, r.v.SetEntityAttr(r.w.Attr, o.entity, o.value)
	default:
		sp := t.start("vkg.InsertEntity", "", 0, 0)
		defer sp.end()
		_, err := r.v.InsertEntity(o.name, o.typ, o.facts, o.attrs)
		return nil, err
	}
}

// source feeds a closed loop: next draws caller c's next op (false ends
// the loop for that caller) and done sees each answer.
type source interface {
	next(c int) (op, bool)
	done(c int, o op, res *vkg.Result)
}

// closedLoop runs the workload's callers, each issuing its next op as soon
// as the previous one returns, until the deadline or the source runs dry.
func (r *runner) closedLoop(ctx context.Context, deadline time.Time, src source) {
	callers := r.w.Callers
	out := make([][]rec, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				o, ok := src.next(c)
				if !ok {
					return
				}
				traced := r.tracedAt(start)
				start = time.Now()
				res, err := r.exec(ctx, o, traced)
				now := time.Now()
				out[c] = append(out[c], rec{kind: o.kind, lat: now.Sub(start), done: now.Sub(r.phaseStart),
					traced: traced, failed: err != nil})
				if err != nil {
					continue
				}
				src.done(c, o, res)
			}
		}(c)
	}
	wg.Wait()
	for _, rs := range out {
		r.recs = append(r.recs, rs...)
	}
}

// keep stores a timed answer for the checks.
func (r *runner) keep(o op, res *vkg.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, answer{q: o.q, key: o.key, res: res})
}

// warmSource cycles the converged keys. Each pass is one closed loop over
// every key, and the cache is cleared between passes, so every query is a
// cache miss on a converged index: it cracks nothing and hits nothing.
type warmSource struct {
	r     *runner
	pos   atomic.Int64
	every int64
}

func (s *warmSource) next(int) (op, bool) {
	i := s.pos.Add(1) - 1
	if i >= int64(len(s.r.keys)) {
		return op{}, false
	}
	k := s.r.keys[i]
	return op{kind: opTopK, seq: i, key: k, q: topKQuery(k)}, true
}

func (s *warmSource) done(_ int, o op, res *vkg.Result) {
	if s.every > 0 && o.seq%s.every == 0 {
		s.r.keep(o, res)
	}
}

func (r *runner) timedWarm(ctx context.Context, deadline time.Time) {
	for pass := 0; time.Now().Before(deadline); pass++ {
		cs := r.v.CacheStats()
		r.cacheAcc.Hits += cs.Hits
		r.cacheAcc.Misses += cs.Misses
		r.v.ResetCache()
		src := &warmSource{r: r, every: 16}
		if pass > 0 {
			src.every = 0 // keep answers of the first pass only
		}
		r.closedLoop(ctx, deadline, src)
	}
}

// mixSource draws the cold write-heavy mix: top-k and aggregates on fresh
// keys (each key used once), and updates, one of which adds the fact the
// caller's latest top-k answer predicted.
type mixSource struct {
	r       *runner
	fresh   atomic.Int64
	wrapped atomic.Bool
	callers []*mixCaller
}

type mixCaller struct {
	mix      *mixSampler
	rng      *rand.Rand
	writes   *writeGen
	last     fact
	haveLast bool
	n        int
}

func newMixSource(r *runner) (*mixSource, error) {
	s := &mixSource{r: r}
	base := newWriteBase(r.g)
	for c := 0; c < r.w.Callers; c++ {
		rng := rand.New(rand.NewSource(r.seed*1000 + int64(c)))
		mix, err := newMixSampler(r.w.Mix, rng)
		if err != nil {
			return nil, err
		}
		s.callers = append(s.callers, &mixCaller{mix: mix, rng: rng,
			writes: base.gen(r.w.Attr, rng, c)})
	}
	return s, nil
}

func (s *mixSource) freshKey() key {
	i := s.fresh.Add(1) - 1
	if i >= int64(len(s.r.keys)) {
		s.wrapped.Store(true)
		i %= int64(len(s.r.keys))
	}
	return s.r.keys[i]
}

func (s *mixSource) next(c int) (op, bool) {
	mc := s.callers[c]
	switch kind := mc.mix.next(); kind {
	case opTopK:
		k := s.freshKey()
		return op{kind: kind, key: k, q: topKQuery(k)}, true
	case opAgg:
		k := s.freshKey()
		return op{kind: kind, key: k, q: s.r.w.aggQuery(k, mc.rng.Intn(2) == 0)}, true
	default:
		return mc.writes.fill(kind, mc.last, mc.haveLast), true
	}
}

func (s *mixSource) done(c int, o op, res *vkg.Result) {
	mc := s.callers[c]
	if o.kind.isWrite() {
		return
	}
	if o.kind == opTopK {
		mc.last, mc.haveLast = predictedFact(o.key, res.TopK)
	}
	mc.n++
	if mc.n%64 == 0 {
		s.r.keep(o, res)
	}
}

// timedPhase runs the workload's timed phase for the run's duration.
func (r *runner) timedPhase(ctx context.Context) error {
	r.phaseStart = time.Now()
	deadline := r.phaseStart.Add(r.dur)
	switch {
	case r.w.Loop == "open-http":
		return r.openLoop(deadline)
	case r.w.Converge:
		r.timedWarm(ctx, deadline)
	default:
		src, err := newMixSource(r)
		if err != nil {
			return err
		}
		r.closedLoop(ctx, deadline, src)
		if src.wrapped.Load() {
			fmt.Fprintf(os.Stderr, "perfbench: warning: fresh keys ran out; keys repeated\n")
		}
	}
	return nil
}

// heapMB forces a collection and reports the live Go heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
