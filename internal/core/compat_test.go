package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"vkgraph/internal/kg"
	"vkgraph/internal/rtree"
	"vkgraph/internal/snapfmt"
	"vkgraph/internal/walfmt"
)

// runQueryList drives one fixed, serial list of top-k and aggregate queries
// (serial, because the cracked shape depends on query order).
func runQueryList(t *testing.T, eng *Engine, g *kg.Graph) {
	t.Helper()
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	movies := g.EntitiesOfType("movie")
	for _, u := range users[:20] {
		if _, err := eng.TopKTails(u, likes, 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range movies[:5] {
		if _, err := eng.TopKHeads(m, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users[20:25] {
		if _, err := eng.AggregateTails(u, likes, AggQuery{Kind: Avg, Attr: "year"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGOMAXPROCSIndependence: the index shape is a function of the data and
// the query sequence alone, never of the machine. The same engine built and
// queried under GOMAXPROCS 1 and 4 must land on the same structure.
func TestGOMAXPROCSIndependence(t *testing.T) {
	base, g := testEngine(t, Crack, defaultTestParams())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var hashes []uint64
	var stats []rtree.Stats
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		eng, err := NewEngine(g, base.Model(), Crack, defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		runQueryList(t, eng, g)
		hashes = append(hashes, eng.StructureHash())
		stats = append(stats, eng.IndexStats())
	}
	if hashes[0] != hashes[1] {
		t.Errorf("StructureHash differs: GOMAXPROCS=1 %x, GOMAXPROCS=4 %x", hashes[0], hashes[1])
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("IndexStats differ:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", stats[0], stats[1])
	}
	if stats[0].BinarySplits == 0 {
		t.Error("query list cracked nothing; the comparison is vacuous")
	}
}

// writeSnapshot frames meta, graph, model, and the given index section as a
// version-3 engine snapshot.
func writeSnapshot(t *testing.T, eng *Engine, index []byte) []byte {
	t.Helper()
	var metaBuf, graphBuf, modelBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(wireMeta{Params: eng.params, Mode: eng.mode}); err != nil {
		t.Fatal(err)
	}
	if err := eng.g.Save(&graphBuf); err != nil {
		t.Fatal(err)
	}
	if err := eng.m.Save(&modelBuf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := snapfmt.WriteHeader(&out, engineMagic, engineVersion, engineSections); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		kind    uint8
		payload []byte
	}{
		{secMeta, metaBuf.Bytes()},
		{secGraph, graphBuf.Bytes()},
		{secModel, modelBuf.Bytes()},
		{secTree, index},
	} {
		if err := snapfmt.WriteSection(&out, sec.kind, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestShardedSnapshotLoadsDegraded: a version-3 snapshot written by a
// sharded engine (an index envelope with Bits = 2 and four tree blobs)
// takes the index-damage path — graph and model load, the index is rebuilt
// cold — and then answers exactly like a fresh engine.
func TestShardedSnapshotLoadsDegraded(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	runQueryList(t, eng, g)

	var blob bytes.Buffer
	if err := eng.tree.Save(&blob); err != nil {
		t.Fatal(err)
	}
	wi := wireIndex{Bits: 2, FrameLo: eng.frame.Lo, FrameHi: eng.frame.Hi, Queries: eng.idxQueries.Load()}
	for i := 0; i < 4; i++ {
		wi.Trees = append(wi.Trees, blob.Bytes())
	}
	var index bytes.Buffer
	if err := gob.NewEncoder(&index).Encode(wi); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadEngine(bytes.NewReader(writeSnapshot(t, eng, index.Bytes())))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if !loaded.IndexRebuilt() {
		t.Fatal("four-tree index section loaded without degrading")
	}
	fresh, err := NewEngine(g, eng.Model(), Crack, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := loaded.StructureHash(), fresh.StructureHash(); a != b {
		t.Fatalf("rebuilt index %x differs from a fresh engine's %x", a, b)
	}
	likes, _ := g.RelationByName("likes")
	for _, u := range g.EntitiesOfType("user")[:15] {
		a, err := loaded.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Predictions, b.Predictions) {
			t.Fatalf("user %d: degraded load answers %v, fresh engine %v", u, a.Predictions, b.Predictions)
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLogReplays: a log written by a sharded engine holds crack
// records naming shards other than 0. Replay ignores the field and cracks
// the one tree with the record's rect, so the graph mutation after it
// still replays and nothing is truncated.
func TestShardedLogReplays(t *testing.T) {
	eng, g, snap := walTestEngine(t)
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	movies := g.EntitiesOfType("movie")
	q := rtree.BallRect(eng.tf.Apply(eng.m.TailQueryPoint(users[0], likes)), 0.5)
	h, tl := users[1], movies[0]
	if g.HasEdge(h, likes, tl) {
		t.Fatal("test fact already in the graph")
	}

	dim := len(q.Lo)
	crack := make([]byte, 4+16*dim)
	binary.LittleEndian.PutUint32(crack[0:4], 3)
	for i := 0; i < dim; i++ {
		binary.LittleEndian.PutUint64(crack[4+8*i:], math.Float64bits(q.Lo[i]))
		binary.LittleEndian.PutUint64(crack[4+8*(dim+i):], math.Float64bits(q.Hi[i]))
	}
	var fact [12]byte
	binary.LittleEndian.PutUint32(fact[0:4], uint32(h))
	binary.LittleEndian.PutUint32(fact[4:8], uint32(likes))
	binary.LittleEndian.PutUint32(fact[8:12], uint32(tl))
	f, err := os.OpenFile(snap+".wal", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		kind    uint8
		payload []byte
	}{{walRecCrack, crack}, {walRecAddFact, fact[:]}} {
		if _, err := walfmt.AppendRecord(f, rec.kind, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatalf("LoadEngineFileWAL: %v", err)
	}
	defer got.CloseWAL()
	if rs := got.WALStats(); rs.ReplayedRecords != 2 || rs.ReplayTruncations != 0 {
		t.Fatalf("replay stats %+v, want 2 records and no truncation", rs)
	}
	if !got.Graph().HasEdge(h, likes, tl) {
		t.Fatal("AddFact after the shard-3 crack record was not replayed")
	}

	// The same two mutations applied directly give the same structure.
	eng.mu.Lock()
	eng.tree.Crack(q)
	eng.mu.Unlock()
	if err := eng.AddFact(h, likes, tl); err != nil {
		t.Fatal(err)
	}
	if eng.IndexStats().BinarySplits == 0 {
		t.Fatal("the crack rect split nothing; the replay check is vacuous")
	}
	if a, b := got.StructureHash(), eng.StructureHash(); a != b {
		t.Fatalf("replayed structure %x, direct %x", a, b)
	}
}
