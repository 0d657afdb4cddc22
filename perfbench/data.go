package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/experiments"
	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// buildDir holds everything the benchmark leaves behind in a checkout: the
// compiled binary, the Go build cache, the prepared datasets, per-run
// snapshots and span files.
const buildDir = ".bench_build"

func datasetDir() string { return filepath.Join(buildDir, "vkgcache") }

// datasetFiles names the graph and model experiments.LoadDataset caches for
// a full-scale dataset under $VKG_CACHE.
func datasetFiles(name string) (graph, model string) {
	base := filepath.Join(datasetDir(), fmt.Sprintf("%s-%d", name, experiments.Full))
	return base + ".graph", base + ".model"
}

// prepare fills the dataset cache once, untimed: experiments.LoadDataset
// generates each full-scale graph and trains its TransE model (about a
// minute for all three on two cores). Concurrent prepares serialize on a
// lock file; a finished cache is left alone.
func prepare(cfg *config) error {
	dir := datasetDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lock, err := os.OpenFile(filepath.Join(buildDir, "prepare.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer lock.Close()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("locking the dataset cache: %w", err)
	}
	defer syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)

	if err := os.Setenv("VKG_CACHE", dir); err != nil {
		return err
	}
	for _, w := range cfg.Workloads {
		if prepared(w.Dataset) {
			continue
		}
		start := time.Now()
		ds, err := experiments.LoadDataset(w.Dataset, experiments.Full)
		if err != nil {
			return err
		}
		if !prepared(w.Dataset) {
			return fmt.Errorf("dataset %s was not written to %s", w.Dataset, dir)
		}
		fmt.Fprintf(os.Stderr, "perfbench: prepared %s (%d entities, %d triples) in %v\n",
			w.Dataset, ds.G.NumEntities(), ds.G.NumTriples(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func prepared(name string) bool {
	gp, mp := datasetFiles(name)
	for _, p := range []string{gp, mp} {
		if _, err := os.Stat(p); err != nil {
			return false
		}
	}
	return true
}

var errNotPrepared = errors.New("dataset cache not prepared (run `perfbench prepare` first; a timed run never trains)")

// loadDataset reads a prepared dataset straight from the cache files, so a
// timed run can never fall back to training, and every repeat of the set-up
// really reads the files.
func loadDataset(w workload) (*kg.Graph, *embedding.Model, error) {
	if !prepared(w.Dataset) {
		return nil, nil, errNotPrepared
	}
	gp, mp := datasetFiles(w.Dataset)
	g, err := kg.LoadFile(gp)
	if err != nil {
		return nil, nil, err
	}
	m, err := embedding.LoadFile(mp)
	if err != nil {
		return nil, nil, err
	}
	if g.NumEntities() != w.Entities || g.NumTriples() != w.Triples || m.NumEntities() != w.Entities {
		return nil, nil, fmt.Errorf("dataset %s has %d entities, %d triples, %d model rows; workloads.json records %d and %d",
			w.Dataset, g.NumEntities(), g.NumTriples(), m.NumEntities(), w.Entities, w.Triples)
	}
	return g, m, nil
}

// build makes the engine every workload runs on: shards pinned to 1, so the
// index shape never depends on GOMAXPROCS.
func build(g *kg.Graph, m *embedding.Model, attr string) (*vkg.VKG, error) {
	return vkg.Build(vkg.WrapGraph(g), vkg.WithPretrainedModel(m), vkg.WithSeed(1),
		vkg.WithShards(1), vkg.WithAttributes(attr))
}
