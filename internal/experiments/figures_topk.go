package experiments

import (
	"fmt"
	"runtime"
	"time"

	"vkgraph/internal/kg"
)

// TimeRow is one bar group of the elapsed-time figures (3, 5, 7): offline
// build time, the 1st/6th/11th/16th query times (showing how the cracking
// index's response time evolves), and the average of the steady-state
// query sequence.
type TimeRow struct {
	Label string
	Build time.Duration
	Q1    time.Duration
	Q6    time.Duration
	Q11   time.Duration
	Q16   time.Duration
	Avg   time.Duration
	// AvgQueries is how many steady-state queries Avg averages over.
	AvgQueries int
}

// TimeFigureConfig parameterizes a time figure run.
type TimeFigureConfig struct {
	K          int // top-k (paper default 10)
	AvgQueries int // steady-state sequence length (paper: 10,000)
	Seed       int64
	// Rel restricts the workload to one relation (required when any spec
	// is h2alsh, which can only handle a single relationship type).
	Rel         kg.RelationID
	SingleRel   bool
	InitQueries int // how many individually-timed initial queries (>= 16)
	// Repeats re-runs the build + initial-query phase on fresh indices and
	// reports the mean, as the paper averages "at least ten runs"; single
	// queries are far too noisy otherwise. The steady-state average is
	// taken from the first repetition only (it is already an average).
	Repeats int
}

func (c TimeFigureConfig) normalize() TimeFigureConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if c.AvgQueries <= 0 {
		c.AvgQueries = 1000
	}
	if c.InitQueries < 16 {
		c.InitQueries = 16
	}
	if c.Seed == 0 {
		c.Seed = 1234
	}
	if c.Repeats <= 0 {
		c.Repeats = 5
	}
	return c
}

// TimeFigure runs the elapsed-time comparison (Figures 3, 5, 7): for each
// method, build the index (timed), answer InitQueries individually-timed
// initial queries, then AvgQueries steady-state queries.
func TimeFigure(ds *Dataset, specs []MethodSpec, cfg TimeFigureConfig) ([]TimeRow, error) {
	cfg = cfg.normalize()
	var workload []Query
	if cfg.SingleRel {
		workload = RelationWorkload(ds.G, cfg.Rel, cfg.InitQueries+cfg.AvgQueries, cfg.Seed)
	} else {
		workload = Workload(ds.G, cfg.InitQueries+cfg.AvgQueries, cfg.Seed)
	}

	rows := make([]TimeRow, 0, len(specs))
	for _, spec := range specs {
		k := cfg.K
		if spec.K > 0 {
			k = spec.K
		}
		var row TimeRow
		row.AvgQueries = cfg.AvgQueries
		for rep := 0; rep < cfg.Repeats; rep++ {
			// Collect the garbage of earlier phases (dataset load, the
			// previous method's queries) first, so the timed build pays
			// only for its own allocations.
			runtime.GC()
			r, err := NewRunner(ds, spec, cfg.Rel)
			if err != nil {
				return nil, fmt.Errorf("method %s: %w", spec.label(), err)
			}
			row.Label = r.Label
			row.Build += r.BuildTime
			for i := 0; i < cfg.InitQueries; i++ {
				start := time.Now()
				r.TopK(workload[i], k)
				el := time.Since(start)
				switch i {
				case 0:
					row.Q1 += el
				case 5:
					row.Q6 += el
				case 10:
					row.Q11 += el
				case 15:
					row.Q16 += el
				}
			}
			if rep == 0 {
				start := time.Now()
				for i := 0; i < cfg.AvgQueries; i++ {
					r.TopK(workload[cfg.InitQueries+i], k)
				}
				row.Avg = time.Since(start) / time.Duration(cfg.AvgQueries)
			}
		}
		reps := time.Duration(cfg.Repeats)
		row.Build /= reps
		row.Q1 /= reps
		row.Q6 /= reps
		row.Q11 /= reps
		row.Q16 /= reps
		rows = append(rows, row)
	}
	return rows, nil
}

// AccRow is one bar of the precision figures (4, 6, 8).
type AccRow struct {
	Label     string
	Precision float64 // mean precision@K against the no-index ground truth
	Queries   int
}

// AccuracyFigureConfig parameterizes a precision figure.
type AccuracyFigureConfig struct {
	K         int
	Queries   int
	Seed      int64
	Rel       kg.RelationID
	SingleRel bool
	// Warm runs this many workload queries through each method before
	// measuring, letting the cracking index take shape first (precision is
	// index-shape independent, but warming matches the paper's protocol of
	// measuring a steady query sequence).
	Warm int
}

func (c AccuracyFigureConfig) normalize() AccuracyFigureConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Seed == 0 {
		c.Seed = 4321
	}
	return c
}

// AccuracyFigure computes precision@K of each method against the no-index
// scan over the same queries (Figures 4, 6, 8).
func AccuracyFigure(ds *Dataset, specs []MethodSpec, cfg AccuracyFigureConfig) ([]AccRow, error) {
	cfg = cfg.normalize()
	var workload []Query
	if cfg.SingleRel {
		workload = RelationWorkload(ds.G, cfg.Rel, cfg.Warm+cfg.Queries, cfg.Seed)
	} else {
		workload = Workload(ds.G, cfg.Warm+cfg.Queries, cfg.Seed)
	}
	// Ground truth per model family: the embedding methods are measured
	// against the exact S1 scan; H2-ALSH against its own exact MIPS scan
	// over the CF factors, as in the paper ("comparing to its no-index
	// case").
	truthFor := func(spec MethodSpec) (*Runner, error) {
		if spec.Method == "h2alsh" {
			return NewMIPSScanRunner(ds, cfg.Rel)
		}
		return NewRunner(ds, MethodSpec{Method: "noindex"}, cfg.Rel)
	}
	truthSets := map[string][]map[kg.EntityID]bool{}

	rows := make([]AccRow, 0, len(specs))
	for _, spec := range specs {
		r, err := NewRunner(ds, spec, cfg.Rel)
		if err != nil {
			return nil, fmt.Errorf("method %s: %w", spec.label(), err)
		}
		k := cfg.K
		if spec.K > 0 {
			k = spec.K
		}
		family := spec.Method
		if family != "h2alsh" {
			family = "embedding"
		}
		family = fmt.Sprintf("%s-k%d", family, k)
		if truthSets[family] == nil {
			truth, err := truthFor(spec)
			if err != nil {
				return nil, err
			}
			sets := make([]map[kg.EntityID]bool, cfg.Queries)
			for i := 0; i < cfg.Queries; i++ {
				set := make(map[kg.EntityID]bool, k)
				for _, id := range truth.TopK(workload[cfg.Warm+i], k) {
					set[id] = true
				}
				sets[i] = set
			}
			truthSets[family] = sets
		}
		for i := 0; i < cfg.Warm; i++ {
			r.TopK(workload[i], k)
		}
		var sum float64
		for i := 0; i < cfg.Queries; i++ {
			got := r.TopK(workload[cfg.Warm+i], k)
			want := truthSets[family][i]
			if len(want) == 0 {
				sum++
				continue
			}
			hit := 0
			for _, id := range got {
				if want[id] {
					hit++
				}
			}
			sum += float64(hit) / float64(len(want))
		}
		rows = append(rows, AccRow{Label: r.Label, Precision: sum / float64(cfg.Queries), Queries: cfg.Queries})
	}
	return rows, nil
}
