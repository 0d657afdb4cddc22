package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"vkgraph/internal/rtree"
	"vkgraph/vkg"
)

// replayQueries is how many of the workload's own queries the layer
// replays run over.
const replayQueries = 512

// layerReplay holds the jl and rtree microbenchmarks, replayed after the
// timed phase on the workload's own query points and balls.
type layerReplay struct {
	jlApplyUS          float64
	walkUS             float64
	walkPointsPerQuery float64
	gatherUS           float64
	crackSplitUS       float64
}

// replay times the layers under the engine on the workload's own inputs:
// the S1→S2 projection of each query point, the best-first walk of the
// index over each query's final S2 ball, leaf-sized distance batches over
// the points each walk returned, and cracking a fresh tree with the same
// balls.
func (r *runner) replay(ctx context.Context) (layerReplay, error) {
	var out layerReplay
	eng := r.v.Engine()
	m, tf, tree := eng.Model(), eng.Transform(), eng.Tree()
	ps, opt, eps := tree.PS(), tree.Opt(), eng.Params().Eps
	if eng.NumShards() != 1 {
		return out, fmt.Errorf("replay needs an unsharded engine, got %d shards", eng.NumShards())
	}

	n := min(replayQueries, len(r.keys))
	q1s := make([][]float64, n)
	q2s := make([][]float64, n)
	radii := make([]float64, n)
	for i, k := range r.keys[:n] {
		res, err := r.v.Do(ctx, topKQuery(k))
		if err != nil {
			return out, err
		}
		preds := res.TopK.Predictions
		radii[i] = preds[len(preds)-1].Dist * (1 + eps)
		if k.Dir == vkg.Tails {
			q1s[i] = m.TailQueryPoint(k.Entity, k.Rel)
		} else {
			q1s[i] = m.HeadQueryPoint(k.Entity, k.Rel)
		}
		q2s[i] = tf.Apply(q1s[i])
	}

	// jl: repeat the projection until the timer reads well above its
	// resolution.
	dst := make([]float64, tf.OutDim())
	calls := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, q1 := range q1s {
			dst = tf.ApplyInto(dst, q1)
		}
		calls += n
	}
	out.jlApplyUS = float64(time.Since(start)) / 1e3 / float64(calls)

	// rtree walk and distance kernels.
	trees := []*rtree.Tree{tree}
	walked := make([][]int32, n)
	var walkT time.Duration
	points := 0
	for i, q2 := range q2s {
		bound := radii[i] * radii[i]
		var ids []int32
		start := time.Now()
		rtree.WalkTreesWithin(trees, q2, func() float64 { return bound }, func(id int32, _ float64) bool {
			ids = append(ids, id)
			return true
		})
		walkT += time.Since(start)
		walked[i] = ids
		points += len(ids)
	}
	out.walkUS = float64(walkT) / 1e3 / float64(n)
	out.walkPointsPerQuery = float64(points) / float64(n)

	sq := make([]float64, opt.LeafCap)
	var gatherT time.Duration
	for i, q2 := range q2s {
		bound := radii[i] * radii[i]
		hits := 0
		start := time.Now()
		for ids := walked[i]; len(ids) > 0; {
			b := ids[:min(opt.LeafCap, len(ids))]
			ids = ids[len(b):]
			ps.GatherSqDists(b, q2, sq[:len(b)])
			ps.EachWithin(b, q2, bound, func(int32, float64) { hits++ })
		}
		gatherT += time.Since(start)
		if hits != len(walked[i]) {
			return out, fmt.Errorf("EachWithin kept %d of the %d points the walk returned", hits, len(walked[i]))
		}
	}
	out.gatherUS = float64(gatherT) / 1e3 / float64(n)

	fresh := rtree.NewCracking(ps, opt)
	fresh.Prepare()
	var crackT time.Duration
	for i, q2 := range q2s {
		ball := rtree.BallRect(q2, radii[i])
		start := time.Now()
		fresh.Crack(ball)
		crackT += time.Since(start)
	}
	if s := fresh.Splits(); s > 0 {
		out.crackSplitUS = float64(crackT) / 1e3 / float64(s)
	}
	for _, v := range []float64{out.jlApplyUS, out.walkUS, out.gatherUS, out.crackSplitUS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("layer replay produced %v", v)
		}
	}
	return out, nil
}
