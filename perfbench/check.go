package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/embedding"
	"vkgraph/vkg"
)

// Correctness checks. Every mismatch counts as a failed operation, and any
// failure fails the run.

// validTopK checks one top-k answer against the model: k distinct
// predictions in ascending distance, each distance the exact S1 distance
// from the query point to that entity.
func validTopK(m *embedding.Model, q vkg.Query, res *vkg.TopKResult) error {
	if res == nil {
		return fmt.Errorf("no top-k result")
	}
	if len(res.Predictions) != q.K {
		return fmt.Errorf("%d predictions, want %d", len(res.Predictions), q.K)
	}
	var q1 []float64
	if q.Dir == vkg.Tails {
		q1 = m.TailQueryPoint(q.Entity, q.Relation)
	} else {
		q1 = m.HeadQueryPoint(q.Entity, q.Relation)
	}
	seen := make(map[vkg.EntityID]bool, len(res.Predictions))
	prev := math.Inf(-1)
	for _, p := range res.Predictions {
		if seen[p.Entity] {
			return fmt.Errorf("entity %d predicted twice", p.Entity)
		}
		seen[p.Entity] = true
		if p.Dist < prev {
			return fmt.Errorf("distances out of order at entity %d", p.Entity)
		}
		prev = p.Dist
		exact := s1Dist(m, q1, p.Entity)
		if math.Abs(p.Dist-exact) > 1e-9*math.Max(1, exact) {
			return fmt.Errorf("entity %d at distance %v, exact %v", p.Entity, p.Dist, exact)
		}
	}
	return nil
}

func s1Dist(m *embedding.Model, q1 []float64, id vkg.EntityID) float64 {
	row := m.EntityVec(id)
	var s float64
	for i, v := range q1 {
		d := row[i] - v
		if m.NormUsed == embedding.L1 {
			s += math.Abs(d)
		} else {
			s += d * d
		}
	}
	if m.NormUsed == embedding.L1 {
		return s
	}
	return math.Sqrt(s)
}

func validAgg(res *vkg.AggResult) error {
	if res == nil {
		return fmt.Errorf("no aggregate result")
	}
	if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) || res.Accessed > res.BallSize {
		return fmt.Errorf("aggregate value %v, accessed %d of %d", res.Value, res.Accessed, res.BallSize)
	}
	return nil
}

// checkSamples validates the answers kept from the timed phase.
func (r *runner) checkSamples() {
	m := r.v.Engine().Model()
	for _, s := range r.samples {
		r.attempted++
		var err error
		if s.q.Kind == vkg.TopK {
			err = validTopK(m, s.q, s.res.TopK)
		} else {
			err = validAgg(s.res.Agg)
		}
		if err != nil {
			r.fail("timed answer %+v: %v", s.key, err)
		}
	}
}

// checkHTTP compares the HTTP answers kept from the timed phase with the
// in-process vkg.Do answer to the same query: entities and distances (and
// aggregate values) must be bit-identical.
func (r *runner) checkHTTP(ctx context.Context) {
	for _, s := range r.httpKeep {
		r.attempted++
		var got wireResult
		if err := json.Unmarshal(s.body, &got); err != nil {
			r.fail("HTTP answer: %v", err)
			continue
		}
		want, err := r.v.Do(ctx, s.q)
		if err != nil {
			r.fail("vkg.Do %+v: %v", s.q, err)
			continue
		}
		if err := sameAnswer(got, want); err != nil {
			r.fail("HTTP answer to %+v differs from vkg.Do: %v", s.q, err)
		}
	}
}

func sameAnswer(got wireResult, want *vkg.Result) error {
	switch {
	case want.TopK != nil:
		if got.TopK == nil || len(got.TopK.Predictions) != len(want.TopK.Predictions) {
			return fmt.Errorf("prediction count")
		}
		for i, p := range want.TopK.Predictions {
			g := got.TopK.Predictions[i]
			if g.Entity != p.Entity || math.Float64bits(g.Dist) != math.Float64bits(p.Dist) {
				return fmt.Errorf("prediction %d: (%d, %v), want (%d, %v)", i, g.Entity, g.Dist, p.Entity, p.Dist)
			}
		}
	case want.Agg != nil:
		if got.Agg == nil || math.Float64bits(got.Agg.Value) != math.Float64bits(want.Agg.Value) {
			return fmt.Errorf("aggregate value")
		}
	}
	return nil
}

// twinAccuracy scores the reported accuracy on a twin engine, loaded and
// built like the timed one and dropped before set-up. Answers do not
// depend on the index shape, so the twin scores what the timed engine
// would, while the cracks of the check queries stay out of the index the
// timed phase runs on.
func (r *runner) twinAccuracy(ctx context.Context) (recall, relErr float64, err error) {
	start := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "perfbench: accuracy scored on a twin engine in %v\n", time.Since(start).Round(time.Millisecond))
	}()
	g, m, err := loadDataset(r.w)
	if err != nil {
		return 0, 0, err
	}
	v, err := build(g, m, r.w.Attr)
	if err != nil {
		return 0, 0, err
	}
	r.checkKeys = distinctKeys(g, r.w.Attr, r.cfg.CheckSeed, r.w.CheckTopK+r.w.CheckAgg)
	return r.accuracy(ctx, v)
}

// accuracy runs the fixed check sample (drawn with the check seed, so
// every run scores the same queries) on v: top-k recall at k against the
// linear scan, and the aggregate estimates' relative error against the
// exact aggregates.
func (r *runner) accuracy(ctx context.Context, v *vkg.VKG) (recall, relErr float64, err error) {
	eng := v.Engine()
	m := eng.Model()
	var recalls, errs []float64
	for i, k := range r.checkKeys {
		r.attempted++
		if i < r.w.CheckTopK {
			q := topKQuery(k)
			res, err := v.Do(ctx, q)
			if err != nil {
				return 0, 0, fmt.Errorf("check query %+v: %w", k, err)
			}
			if err := validTopK(m, q, res.TopK); err != nil {
				r.fail("check answer %+v: %v", k, err)
				continue
			}
			var truth *core.TopKResult
			if k.Dir == vkg.Tails {
				truth, err = eng.TopKTailsNoIndex(k.Entity, k.Rel, topK)
			} else {
				truth, err = eng.TopKHeadsNoIndex(k.Entity, k.Rel, topK)
			}
			if err != nil {
				return 0, 0, err
			}
			got := make(map[vkg.EntityID]bool)
			for _, p := range res.TopK.Predictions {
				got[p.Entity] = true
			}
			hit := 0
			for _, p := range truth.Predictions {
				if got[p.Entity] {
					hit++
				}
			}
			recalls = append(recalls, ratio(float64(hit), float64(len(truth.Predictions))))
			continue
		}
		q := r.w.aggQuery(k, i%2 == 0)
		res, err := v.Do(ctx, q)
		if err != nil {
			return 0, 0, fmt.Errorf("check aggregate %+v: %w", k, err)
		}
		if err := validAgg(res.Agg); err != nil {
			r.fail("check aggregate %+v: %v", k, err)
			continue
		}
		cq := core.AggQuery{Kind: core.Count}
		if q.Agg.Kind == vkg.Avg {
			cq.Kind, cq.Attr = core.Avg, q.Agg.Attr
		}
		var exact *core.AggResult
		if k.Dir == vkg.Tails {
			exact, err = eng.AggregateTailsExact(k.Entity, k.Rel, cq)
		} else {
			exact, err = eng.AggregateHeadsExact(k.Entity, k.Rel, cq)
		}
		if err != nil {
			return 0, 0, err
		}
		if exact.Value != 0 {
			errs = append(errs, math.Abs(res.Agg.Value-exact.Value)/math.Abs(exact.Value))
		}
	}
	recall, relErr = mean(recalls), mean(errs)
	if recall < recallFloor {
		r.fail("recall@%d %.4f below the floor %.2f", topK, recall, recallFloor)
	}
	if len(errs) == 0 {
		r.fail("no aggregate in the check sample had a nonzero exact value")
	}
	return recall, relErr, nil
}
