package vkg

import (
	"context"
	"fmt"

	"vkgraph/internal/core"
)

// Prediction is one predicted edge: the entity, its embedding distance to
// the query point (smaller is more plausible), and the predicted
// probability (1 for the closest entity, decaying inversely with distance).
type Prediction struct {
	Entity EntityID
	Name   string
	Dist   float64
	Prob   float64
}

// TopKResult carries the ranked predictions with the paper's Theorem 2
// accuracy guarantee.
type TopKResult struct {
	Predictions []Prediction
	// RecallBound is a lower bound on the probability that no true top-k
	// entity is missing from Predictions.
	RecallBound float64
	// ExpectedMisses bounds the expected number of true top-k entities
	// missing from Predictions.
	ExpectedMisses float64
	// Examined is how many candidate entities the query had to score.
	Examined int
}

// TopKTails returns the k entities most likely to be a tail of (h, r, ?),
// excluding facts already in the graph — e.g. "top-5 restaurants Amy would
// rate high but has not been to yet". It is a thin wrapper over Do; for
// many queries at once, use DoBatch.
func (v *VKG) TopKTails(h EntityID, r RelationID, k int) (*TopKResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: TopK, Dir: Tails, Entity: h, Relation: r, K: k})
	if err != nil {
		return nil, err
	}
	return res.TopK, nil
}

// TopKHeads returns the k entities most likely to be a head of (?, r, t) —
// e.g. "top-5 people who would like Restaurant 2". It is a thin wrapper
// over Do; for many queries at once, use DoBatch.
func (v *VKG) TopKHeads(t EntityID, r RelationID, k int) (*TopKResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: TopK, Dir: Heads, Entity: t, Relation: r, K: k})
	if err != nil {
		return nil, err
	}
	return res.TopK, nil
}

func (v *VKG) convert(res *core.TopKResult) *TopKResult {
	out := &TopKResult{
		RecallBound:    res.RecallBound,
		ExpectedMisses: res.ExpectedMisses,
		Examined:       res.Examined,
	}
	for _, p := range res.Predictions {
		out.Predictions = append(out.Predictions, Prediction{
			Entity: p.Entity,
			// Engine.EntityName synchronizes against concurrent
			// InsertEntity calls; the raw graph accessor does not.
			Name: v.eng.EntityName(p.Entity),
			Dist: p.Dist,
			Prob: p.Prob,
		})
	}
	return out
}

// AggKind selects the aggregate function.
type AggKind int

const (
	Count AggKind = iota
	Sum
	Avg
	Max
	Min
)

// AggSpec describes an aggregate query over predicted edges.
type AggSpec struct {
	Kind AggKind
	// Attr is the aggregated attribute (registered via WithAttributes).
	// Count counts predicted edges rather than aggregating values, so
	// setting Attr on a Count is rejected.
	Attr string
	// MaxAccess is the sample size a: the number of closest ball entities
	// whose attributes are materialized. 0 accesses the whole ball. This
	// is the speed/accuracy knob of Figures 12-16.
	MaxAccess int
	// ProbThreshold overrides the build-time p_tau for this query.
	ProbThreshold float64
}

// AggResult is an aggregate estimate with its Theorem 4 martingale bound.
type AggResult struct {
	Value    float64
	Accessed int // a: ball entities actually materialized
	BallSize int // b: entities in the probability ball

	inner core.AggResult
}

// ErrorProbability bounds the probability that the ground-truth aggregate
// deviates from Value by more than the given relative delta (Theorem 4).
func (r *AggResult) ErrorProbability(delta float64) float64 {
	return r.inner.ErrorProbability(delta)
}

// ConfidenceRadius returns the relative error radius guaranteed with the
// given confidence (e.g. 0.95).
func (r *AggResult) ConfidenceRadius(conf float64) float64 {
	return r.inner.ConfidenceRadius(conf)
}

// convertAgg validates an AggSpec at the API edge — so misuse fails loudly
// here rather than behaving oddly deep in the sampling estimators — and
// lowers it to the engine query type.
func convertAgg(spec AggSpec) (core.AggQuery, error) {
	q := core.AggQuery{
		Attr:      spec.Attr,
		MaxAccess: spec.MaxAccess,
		PTau:      spec.ProbThreshold,
	}
	if spec.MaxAccess < 0 {
		return q, fmt.Errorf("vkg: negative MaxAccess %d", spec.MaxAccess)
	}
	if spec.ProbThreshold < 0 || spec.ProbThreshold > 1 {
		return q, fmt.Errorf("vkg: probability threshold %v outside (0, 1]", spec.ProbThreshold)
	}
	switch spec.Kind {
	case Count:
		if spec.Attr != "" {
			return q, fmt.Errorf("vkg: Attr %q set on a Count aggregate (Count counts predicted edges, not attribute values)", spec.Attr)
		}
		q.Kind = core.Count
	case Sum:
		q.Kind = core.Sum
	case Avg:
		q.Kind = core.Avg
	case Max:
		q.Kind = core.Max
	case Min:
		q.Kind = core.Min
	default:
		return q, fmt.Errorf("vkg: unknown aggregate kind %d", spec.Kind)
	}
	return q, nil
}

// wrapAgg lifts an engine aggregate result into the public type.
func wrapAgg(res *core.AggResult) *AggResult {
	return &AggResult{Value: res.Value, Accessed: res.Accessed, BallSize: res.BallSize, inner: *res}
}

// AggregateTails estimates an aggregate over the predicted tails of
// (h, r, ?) — e.g. "the expected number of restaurants Amy may like". It is
// a thin wrapper over Do; for many queries at once, use DoBatch.
func (v *VKG) AggregateTails(h EntityID, r RelationID, spec AggSpec) (*AggResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: Aggregate, Dir: Tails, Entity: h, Relation: r, Agg: spec})
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

// AggregateHeads estimates an aggregate over the predicted heads of
// (?, r, t) — e.g. "the average age of the people who would like
// Restaurant 2" (Q2 of the paper). It is a thin wrapper over Do; for many
// queries at once, use DoBatch.
func (v *VKG) AggregateHeads(t EntityID, r RelationID, spec AggSpec) (*AggResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: Aggregate, Dir: Heads, Entity: t, Relation: r, Agg: spec})
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

// IndexStats summarizes the index structure: node counts, binary splits
// performed, and estimated size in bytes. For a cracking index these grow
// with the query workload and converge quickly (Figs. 9-11 of the paper).
type IndexStats struct {
	InternalNodes int
	LeafNodes     int
	PendingNodes  int
	TotalNodes    int
	BinarySplits  int
	// SizeBytes estimates the index footprint: arena slab bytes plus the
	// heap referenced by nodes (leaf id slices, pending partitions, child
	// pointer slices). It excludes the point set and the packed mirror —
	// see PackedBytes and Metrics().Memory.
	SizeBytes int
	Height    int

	// ArenaNodesInUse/Free count node-arena records; ArenaBytes is the
	// slab memory backing them. PackedBytes is the size of the packed
	// float32 coordinate mirror (0 when WithPackedCoords(false)).
	ArenaNodesInUse int
	ArenaNodesFree  int
	ArenaBytes      int
	PackedBytes     int
}

// IndexStats returns current index statistics.
func (v *VKG) IndexStats() IndexStats {
	s := v.eng.IndexStats()
	return IndexStats{
		InternalNodes:   s.InternalNodes,
		LeafNodes:       s.LeafNodes,
		PendingNodes:    s.PendingNodes,
		TotalNodes:      s.TotalNodes,
		BinarySplits:    s.BinarySplits,
		SizeBytes:       s.SizeBytes,
		Height:          s.Height,
		ArenaNodesInUse: s.ArenaNodesInUse,
		ArenaNodesFree:  s.ArenaNodesFree,
		ArenaBytes:      s.ArenaBytes,
		PackedBytes:     v.eng.PackedBytes(),
	}
}
