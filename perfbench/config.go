package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloads.json is the record of every workload's inputs: dataset and its
// expected size, load loop, key counts, rate, op mix, WAL policy, and the
// deterministic counts of the single-caller convergence pass per seed. The
// program reads its settings from it, so the record and the run cannot
// drift apart.
//
//go:embed workloads.json
var configJSON []byte

type config struct {
	// HeldOutSeed is the seed a claimed gain must also hold on; no run
	// uses it by default. CacheCapacity records the engine's result-cache
	// size the key counts are chosen against. Both are records only.
	HeldOutSeed   int64      `json:"held_out_seed"`
	CacheCapacity int        `json:"cache_capacity"`
	CheckSeed     int64      `json:"check_seed"`
	Workloads     []workload `json:"workloads"`
	Expected      []expected `json:"expected"`
}

type workload struct {
	Name     string `json:"name"`
	Dataset  string `json:"dataset"`
	Attr     string `json:"attr"`
	Entities int    `json:"entities"`
	Triples  int    `json:"triples"`
	Loop     string `json:"loop"` // "closed" (in process) or "open-http"
	// Callers is the number of closed-loop callers or open-loop
	// connections, at most nproc on the reference machine.
	Callers int     `json:"callers"`
	Keys    int     `json:"keys"` // distinct keys (closed) or Zipf universe (open); 0 = every key, fresh per op
	ZipfS   float64 `json:"zipf_s"`
	// CacheWarmRequests Zipf requests fill the result cache, untimed,
	// before the open-loop phase.
	CacheWarmRequests int                `json:"cache_warm_requests"`
	RatePerS          float64            `json:"rate_per_s"`
	Mix               map[string]float64 `json:"mix"`
	Converge          bool               `json:"converge"`
	// WALSyncIntervalMS records the WAL's fsync policy: interval fsync
	// (the default) at this period.
	WALSyncIntervalMS int `json:"wal_sync_interval_ms"`
	CheckTopK         int `json:"check_topk"`
	CheckAgg          int `json:"check_agg"`
}

// Settings every workload shares.
const (
	topK        = 10 // k of every top-k query
	maxAccess   = 64 // aggregate sample budget (AggSpec.MaxAccess)
	recallFloor = 0.9
	// checkHTTPEvery: every checkHTTPEvery-th request of an open-loop
	// connection is checked against vkg.Do.
	checkHTTPEvery = 16
)

// expected holds the deterministic counts of one workload's single-caller
// convergence pass at one seed. A run at that seed that lands elsewhere is
// flagged.
type expected struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	StructureHash    string  `json:"structure_hash"`
	Nodes            int     `json:"nodes"`
	Splits           uint64  `json:"splits"`
	ExaminedPerQuery float64 `json:"examined_per_query"`
	LeafPerQuery     float64 `json:"leaf_per_query"`
}

func loadConfig() (*config, error) {
	var c config
	dec := json.NewDecoder(bytes.NewReader(configJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, w := range c.Workloads {
		if w.Loop != "closed" && w.Loop != "open-http" {
			return nil, fmt.Errorf("workloads.json: workload %s: bad loop %q", w.Name, w.Loop)
		}
		if w.Callers < 1 {
			return nil, fmt.Errorf("workloads.json: workload %s: callers must be at least 1", w.Name)
		}
	}
	return &c, nil
}

func (c *config) workload(name string) (workload, error) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (c *config) expectedFor(name string, seed int64) (expected, bool) {
	for _, e := range c.Expected {
		if e.Workload == name && e.Seed == seed {
			return e, true
		}
	}
	return expected{}, false
}

func (w workload) walInterval() time.Duration {
	return time.Duration(w.WALSyncIntervalMS) * time.Millisecond
}
