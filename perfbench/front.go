package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vkgraph/internal/serve"
	"vkgraph/vkg"
)

// front is the HTTP layer under test: an in-process serve.Server on a
// loopback listener. In a traced run its handler and backend are wrapped
// in span recorders.
type front struct {
	http *http.Server
	base string
	done chan error
}

func startFront(v *vkg.VKG, t *tracer) (*front, error) {
	s := serve.NewServer(serve.Config{})
	tenant := serve.NewTenant(v, "")
	h := s.Handler()
	if t != nil {
		tenant.Backend = tracedBackend{v: v, t: t}
		h = tracedHandler(h, t)
	}
	if err := s.AddTenant("bench", tenant); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.http.Serve(ln) }()
	// The set-up ends when the server answers its readiness probe.
	resp, err := http.Get(f.base + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = f.close()
		return nil, err
	}
	return f, nil
}

func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.http.Shutdown(ctx)
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// The wire shapes of POST /v1/query, as far as the benchmark uses them.
type wireQuery struct {
	Kind       string   `json:"kind,omitempty"`
	Dir        string   `json:"dir,omitempty"`
	EntityID   int32    `json:"entity_id"`
	RelationID int32    `json:"relation_id"`
	K          int      `json:"k,omitempty"`
	Agg        *wireAgg `json:"agg,omitempty"`
}

type wireAgg struct {
	Kind      string `json:"kind"`
	Attr      string `json:"attr,omitempty"`
	MaxAccess int    `json:"max_access,omitempty"`
}

type wireResult struct {
	TopK *struct {
		Predictions []struct {
			Entity vkg.EntityID `json:"entity"`
			Dist   float64      `json:"dist"`
		} `json:"predictions"`
	} `json:"topk"`
	Agg *struct {
		Value float64 `json:"value"`
	} `json:"agg"`
}

func toWire(q vkg.Query) wireQuery {
	w := wireQuery{EntityID: q.Entity, RelationID: q.Relation, K: q.K}
	if q.Dir == vkg.Heads {
		w.Dir = "heads"
	}
	if q.Kind == vkg.Aggregate {
		w.Kind, w.K = "aggregate", 0
		w.Agg = &wireAgg{Kind: "count", MaxAccess: q.Agg.MaxAccess}
		if q.Agg.Kind == vkg.Avg {
			w.Agg.Kind, w.Agg.Attr = "avg", q.Agg.Attr
		}
	}
	return w
}

// httpSample is a timed HTTP answer kept for the byte-identity check.
type httpSample struct {
	q    vkg.Query
	body []byte
}

// client is one connection of the open-loop generator.
type client struct {
	c   *http.Client
	url string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{c: &http.Client{Transport: tr}, url: base + "/v1/query"}
}

// query posts q and returns the status and body. When t is not nil the
// request carries a "net.Client" span the server-side spans hang under.
func (c *client) query(q vkg.Query, t *tracer) (int, []byte, error) {
	body, err := json.Marshal(toWire(q))
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	sp := t.start("net.Client", queryKind(q), 0, 0)
	if t != nil {
		id := strconv.FormatUint(sp.s.ID, 10)
		req.Header.Set(hdrReq, id)
		req.Header.Set(hdrSpan, id)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	return resp.StatusCode, b, err
}

// runSchedule runs connection c of conns of an open loop: its request j
// is due at start + (j·conns + c)·interval, and goes out then, or as soon
// as the connection is free if an earlier request overran. send makes one
// request. A request that queued behind an overrun is timed from its due
// time, so the stall is charged to every request it delayed; any other
// request is timed from when it went out, so the generator's own timer
// lateness (a Go timer wakes up to about a millisecond late) stays out of
// the latency. late records how late each request went out.
func runSchedule(start, deadline time.Time, interval time.Duration, c, conns int, send func(j int, due time.Time) rec) []rec {
	var out []rec
	var free time.Time // when the previous request returned
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j*conns+c) * interval)
		if !due.Before(deadline) {
			return out
		}
		// Sleeping in a raw nanosleep instead of a timer would hold one of
		// the few Ps for the whole wait and starve the server sharing the
		// process.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		rc := send(j, due)
		now := time.Now()
		rc.queued = free.After(due)
		from := sent
		if rc.queued {
			from = due
		}
		rc.lat, rc.late, rc.done = now.Sub(from), sent.Sub(due), now.Sub(start)
		out = append(out, rc)
		free = now
	}
}

// openLoop is the open-loop generator: requests are due on a fixed
// schedule at the workload's rate, spread over its connections, whether or
// not earlier ones have returned. A stall also charges the requests queued
// behind it (see runSchedule).
func (r *runner) openLoop(deadline time.Time) error {
	interval := time.Duration(float64(time.Second) / r.w.RatePerS)
	callers := r.w.Callers
	out := make([][]rec, callers)
	keep := make([][]httpSample, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		cl := newClient(r.front.base)
		rng := rand.New(rand.NewSource(r.seed*1000 + int64(c)))
		mix, err := newMixSampler(r.w.Mix, rng)
		if err != nil {
			return err
		}
		zipf := newZipfKeys(r.keys, r.w.ZipfS, r.seed*1000+500+int64(c))
		uniform := rand.New(rand.NewSource(r.seed*1000 + 700 + int64(c)))
		attrKeys := r.attrKeys()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer cl.c.CloseIdleConnections()
			out[c] = runSchedule(r.phaseStart, deadline, interval, c, callers, func(j int, due time.Time) rec {
				// Top-k keys are Zipf-skewed, so the result cache serves the
				// hot ones. Aggregates are never cached; their keys are
				// uniform over aggKeys of the universe's keys that predict
				// entities carrying the attribute, so one hot key's ball
				// does not set the tail of a whole run.
				var q vkg.Query
				kind := mix.next()
				if kind == opAgg {
					k := attrKeys[uniform.Intn(len(attrKeys))]
					q = r.w.aggQuery(k, rng.Intn(2) == 0)
				} else {
					q = topKQuery(zipf.next())
				}
				traced := r.tracedAt(due)
				var t *tracer
				if traced {
					t = r.tr
				}
				status, body, err := cl.query(q, t)
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				failed := err != nil || status != http.StatusOK
				if !failed && j%checkHTTPEvery == 0 {
					keep[c] = append(keep[c], httpSample{q: q, body: body})
				}
				return rec{kind: kind, traced: traced, failed: failed}
			})
		}(c)
	}
	wg.Wait()
	for c := range out {
		r.recs = append(r.recs, out[c]...)
		r.httpKeep = append(r.httpKeep, keep[c]...)
		if errs[c] != nil {
			r.problems = append(r.problems, fmt.Sprintf("connection %d: %v", c, errs[c]))
		}
	}
	return nil
}
