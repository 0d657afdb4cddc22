package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// testGraph is a small graph with many distinct keys.
func testGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	rels := []kg.RelationID{g.AddRelation("likes"), g.AddRelation("owns")}
	var ids []kg.EntityID
	for i := 0; i < 200; i++ {
		ids = append(ids, g.AddEntity(fmt.Sprintf("e%d", i), "thing"))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		h, tl := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if h == tl {
			continue
		}
		if err := g.AddTriple(h, rels[rng.Intn(len(rels))], tl); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func TestDistinctKeysDeterministicAndDistinct(t *testing.T) {
	g := testGraph(t)
	a, b := distinctKeys(g, "size", 42, 0), distinctKeys(g, "size", 42, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different key sequences")
	}
	if reflect.DeepEqual(a, distinctKeys(g, "size", 43, 0)) {
		t.Fatal("different seeds gave the same key sequence")
	}
	type id struct {
		dir    int
		e, rel int32
	}
	seen := make(map[id]bool)
	for _, k := range a {
		i := id{int(k.Dir), k.Entity, k.Rel}
		if seen[i] {
			t.Fatalf("key %+v drawn twice", k)
		}
		seen[i] = true
	}
	if got := distinctKeys(g, "size", 42, 100); !reflect.DeepEqual(got, a[:100]) {
		t.Fatal("truncated sequence is not a prefix of the full one")
	}
}

func TestZipfKeysDeterministicAndSkewed(t *testing.T) {
	g := testGraph(t)
	keys := distinctKeys(g, "size", 1, 0)
	draw := func(seed int64) []key {
		z := newZipfKeys(keys, 1.1, seed)
		out := make([]key, 5000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a := draw(9)
	if !reflect.DeepEqual(a, draw(9)) {
		t.Fatal("same seed gave different Zipf draws")
	}
	if reflect.DeepEqual(a, draw(10)) {
		t.Fatal("different seeds gave the same Zipf draws")
	}
	counts := make(map[key]int)
	for _, k := range a {
		counts[k]++
	}
	if counts[keys[0]] <= counts[keys[len(keys)/2]] || counts[keys[0]] < len(a)/20 {
		t.Fatalf("rank 0 drawn %d times, middle rank %d: not skewed", counts[keys[0]], counts[keys[len(keys)/2]])
	}
	if len(counts) >= len(a) {
		t.Fatal("no repeats in a Zipf stream")
	}
}

func TestMixSamplerWeightsAndDeterminism(t *testing.T) {
	mix := map[string]float64{"topk": 0.85, "agg": 0.05, "addfact": 0.04, "setattr": 0.04, "insert": 0.02}
	run := func(seed int64) [numOpKinds]int {
		m, err := newMixSampler(mix, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var c [numOpKinds]int
		for i := 0; i < 100000; i++ {
			c[m.next()]++
		}
		return c
	}
	c := run(3)
	if c != run(3) {
		t.Fatal("same seed gave different op sequences")
	}
	for k := opKind(0); k < numOpKinds; k++ {
		got := float64(c[k]) / 100000
		if want := mix[k.String()]; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s drawn %.3f of the time, want %.3f", k, got, want)
		}
	}
	if _, err := newMixSampler(map[string]float64{"topk": 1, "bogus": 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown op kind accepted")
	}
}

func TestPredictedFactDirection(t *testing.T) {
	res := topKResult(7)
	if f, _ := predictedFact(key{Dir: 0, Entity: 1, Rel: 2}, res); f != (fact{h: 1, r: 2, t: 7}) {
		t.Errorf("tail key predicted %+v", f)
	}
	if f, _ := predictedFact(key{Dir: 1, Entity: 1, Rel: 2}, res); f != (fact{h: 7, r: 2, t: 1}) {
		t.Errorf("head key predicted %+v", f)
	}
	if _, ok := predictedFact(key{}, nil); ok {
		t.Error("fact predicted from no answer")
	}
}

func topKResult(e vkg.EntityID) *vkg.TopKResult {
	return &vkg.TopKResult{Predictions: []vkg.Prediction{{Entity: e}}}
}
