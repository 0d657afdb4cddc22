// Command perfbench is vkgraph's benchmark: one command runs a named
// workload from a seed, checks the answers, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// its output. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	perfbench prepare
//	perfbench --workload topk-amazon-warm --seed 1 --seconds 15 --trace 0
//
// perfbench/run.sh builds the binary, prepares the dataset cache once, and
// runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vkgraph/vkg"
)

func main() {
	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	if len(os.Args) > 1 && os.Args[1] == "prepare" {
		if err := prepare(cfg); err != nil {
			fatal(err)
		}
		return
	}
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, err := cfg.workload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	r := &runner{cfg: cfg, w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		traceOn: *trace == 1,
		tmp:     filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))}
	if r.traceOn {
		r.tr = newTracer()
	}
	err = r.run(context.Background())
	if terr := r.teardown(); terr != nil && err == nil {
		err = terr
	}
	if rerr := os.RemoveAll(r.tmp); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	metrics := r.e2e
	if r.traceOn {
		metrics = r.layer
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: problem:", p)
	}
	correct := r.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run is one run of one workload: set-up, convergence, the timed phase,
// the checks, the restart, and the metrics.
func (r *runner) run(ctx context.Context) error {
	recall, relErr, err := r.twinAccuracy(ctx)
	if err != nil {
		return err
	}
	setupS, err := r.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.keys = distinctKeys(r.g, r.w.Attr, r.seed, r.w.Keys)
	if r.w.Converge {
		if err := r.converge(ctx); err != nil {
			return err
		}
	}
	if r.w.CacheWarmRequests > 0 {
		z := newZipfKeys(r.keys, r.w.ZipfS, r.seed*1000+900)
		for i := 0; i < r.w.CacheWarmRequests; i++ {
			if _, err := r.v.Do(ctx, topKQuery(z.next())); err != nil {
				return fmt.Errorf("cache warm-up: %w", err)
			}
		}
	}

	// Start from a collected heap, so the garbage of set-up, convergence
	// and checks is not charged to the timed phase.
	runtime.GC()
	before, err := r.readCounters()
	if err != nil {
		return err
	}
	if err := r.timedPhase(ctx); err != nil {
		return err
	}
	after, err := r.readCounters()
	if err != nil {
		return err
	}
	if n := after.m.CrackSplits - before.m.CrackSplits; r.w.Converge && n != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d crack splits in the timed phase of a converged workload\n", n)
	}
	heap := heapMB()
	idx := r.v.IndexStats()
	var lr layerReplay
	if r.traceOn {
		if lr, err = r.replay(ctx); err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
	}

	r.attempted += len(r.recs)
	for _, rc := range r.recs {
		if rc.failed {
			r.fail("timed %s operation failed", rc.kind)
		}
	}
	r.checkSamples()
	r.checkHTTP(ctx)
	if r.w.Converge {
		// The warm workloads write nothing in their timed phase; arm the
		// WAL now so their restart goes through the same LoadFileWAL path
		// (an anchor snapshot of the warm index and an empty log).
		sp := r.tr.start("vkg.EnableWAL", "", 0, 0)
		err := r.v.EnableWAL(r.snapshotPath(), r.walConfig())
		sp.end()
		if err != nil {
			return err
		}
	} else if _, _, err := r.accuracy(ctx, r.v); err != nil {
		// The updates changed the graph: the check sample is scored again
		// on the state they left, for failures only.
		return err
	}
	rs, err := r.restart(ctx)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}

	p50, p99, err := readTiming(r.recs)
	if err != nil {
		return err
	}
	e := metricSet{}
	e.set("setup_s", setupS, "s")
	e.set("qps", answeredRate(r.recs, r.dur), "1/s")
	e.set("p50_ms", p50, "ms")
	e.set("recall_at_10", recall, "ratio")
	e.set("agg_rel_err", relErr, "ratio")
	e.set("restart_s", rs.total.Seconds(), "s")
	e.set("heap_mb", heap, "MiB")
	r.e2e = e

	reads, writes := latencies(r.recs)
	w := durations(writes, time.Millisecond)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed ops in %v; %d reads: p50 %.3fms, p99 %.3fms (highest supported p%v); %d writes: p50 %.3fms, p99 %.3fms; error_rate %.6f (%d of %d)\n",
		r.w.Name, r.seed, len(r.recs), r.dur, len(reads), p50, p99, tailPercentile(len(reads)),
		len(writes), percentile(w, 50), percentile(w, 99),
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)

	if r.traceOn {
		l := r.layerMetrics(before, after, idx, lr, rs)
		l.set("vkg.read_p99_ms", p99, "ms")
		r.layer = l
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", r.w.Name, r.seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return nil
}

// restartResult is what a restart from the anchor snapshot and its WAL
// measured.
type restartResult struct {
	total      time.Duration // LoadFileWAL plus the first answer
	replay     time.Duration
	replayed   uint64
	snapshotMB float64
	walRecords uint64
	walBytes   uint64
	fsyncP99US float64
}

// restartRepeats is how many times restart at least reloads the snapshot;
// like set-up, a cheap restart repeats more often, until setupBudget is
// spent or three times as often. It reports the median.
const restartRepeats = 5

// restart closes the live WAL, then reloads the anchor snapshot with
// LoadFileWAL (which replays the log) and times it until the reloaded
// engine has answered its first query. The reloaded index must hash equal
// to the live one.
func (r *runner) restart(ctx context.Context) (restartResult, error) {
	var rs restartResult
	live := r.v.Engine().StructureHash()
	ws := r.v.WALStats()
	rs.walRecords, rs.walBytes = ws.AppendedRecords, ws.AppendedBytes
	prom, err := scrapeEngine(r.v)
	if err != nil {
		return rs, err
	}
	rs.fsyncP99US = histogramDelta(promText{}, prom, "vkg_wal_fsync_seconds").quantile(0.99) * 1e6
	if err := r.v.CloseWAL(); err != nil {
		return rs, err
	}
	if fi, err := os.Stat(r.snapshotPath()); err == nil {
		rs.snapshotMB = float64(fi.Size()) / (1 << 20)
	} else {
		return rs, err
	}

	var totals, replays []float64
	var spent time.Duration
	for i := 0; i < restartRepeats || (spent < setupBudget && i < 3*restartRepeats); i++ {
		runtime.GC()
		total, ws, err := r.restartOnce(ctx, live, i)
		if err != nil {
			return rs, err
		}
		spent += total
		totals = append(totals, float64(total))
		replays = append(replays, float64(ws.ReplayDuration))
		rs.replayed = ws.ReplayedRecords
	}
	rs.total = time.Duration(median(totals))
	rs.replay = time.Duration(median(replays))
	return rs, nil
}

// restartOnce is one timed restart: load, replay, and the first answer.
func (r *runner) restartOnce(ctx context.Context, live uint64, i int) (time.Duration, vkg.WALStats, error) {
	// Each restart loads its own copy of the snapshot and log: a restart
	// that appended to the shared log would change what the next replays.
	snap := filepath.Join(r.tmp, fmt.Sprintf("restart-%d", i), "anchor.vkg")
	defer os.RemoveAll(filepath.Dir(snap))
	for _, suffix := range []string{"", ".wal"} {
		if err := copyFile(r.snapshotPath()+suffix, snap+suffix); err != nil {
			return 0, vkg.WALStats{}, err
		}
	}
	sp := r.tr.start("vkg.LoadFileWAL", "", 0, 0)
	start := time.Now()
	v2, err := vkg.LoadFileWAL(snap, r.walConfig())
	load := time.Since(start)
	sp.end()
	if err != nil {
		return 0, vkg.WALStats{}, err
	}
	defer v2.CloseWAL()
	r.attempted++
	if got := v2.Engine().StructureHash(); got != live {
		r.fail("restarted index hashes %016x, live index %016x", got, live)
	}
	start = time.Now()
	_, err = v2.Do(ctx, topKQuery(r.checkKeys[0]))
	total := load + time.Since(start)
	return total, v2.WALStats(), err
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
