package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vkgraph/vkg"
)

// The tracer records spans from the benchmark's own code around calls into
// each layer's public functions. Spans stay in memory and are written once,
// when the run ends. A nil *tracer records nothing; untraced runs use one.

// span is one timed call. Spans of one request share Req; Parent names the
// span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a span in progress; the zero value (from a nil tracer) ends as
// a no-op.
type active struct {
	t *tracer
	s span
}

// start opens a span. parent and req may be 0: a root span becomes its own
// request.
func (t *tracer) start(name, kind string, parent, req uint64) active {
	if t == nil {
		return active{}
	}
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	return active{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind,
		Start: int64(time.Since(t.t0))}}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.t0))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanDurations returns the durations, in µs, of the spans with the given
// name (and kind, when kind is not empty).
func spanDurations(spans []span, name, kind string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns, per request that has both, the time in µs a parent
// span named parent spent outside its child span named child: the parent
// layer's self time.
func selfTimes(spans []span, parent, child string) []float64 {
	parents := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == parent {
			parents[s.ID] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != child {
			continue
		}
		if p, ok := parents[s.Parent]; ok {
			out = append(out, float64(p.dur()-s.dur())/1e3)
		}
	}
	return out
}

// Request-scoped span identity crosses the HTTP hop in two headers and
// reaches the backend through the request context.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type spanRef struct{ id, req uint64 }

type spanCtxKey struct{}

// tracedHandler wraps the serve.Server handler: a request carrying the
// benchmark's span headers gets a "serve.Handler" span, and its context
// carries the span to the backend.
func tracedHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		sp := t.start("serve.Handler", "", parent, req)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{id: sp.s.ID, req: req})
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// tracedBackend is the serve.Backend the traced run installs: it times
// every engine call made on behalf of a traced request.
type tracedBackend struct {
	v *vkg.VKG
	t *tracer
}

func (b tracedBackend) Do(ctx context.Context, q vkg.Query) (*vkg.Result, error) {
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	if !ok {
		return b.v.Do(ctx, q)
	}
	sp := b.t.start("vkg.Do", queryKind(q), ref.id, ref.req)
	defer sp.end()
	return b.v.Do(ctx, q)
}

func (b tracedBackend) DoBatchWorkers(ctx context.Context, qs []vkg.Query, workers int) []vkg.Result {
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	if !ok {
		return b.v.DoBatchWorkers(ctx, qs, workers)
	}
	sp := b.t.start("vkg.DoBatchWorkers", fmt.Sprint(len(qs)), ref.id, ref.req)
	defer sp.end()
	return b.v.DoBatchWorkers(ctx, qs, workers)
}

func queryKind(q vkg.Query) string {
	if q.Kind == vkg.Aggregate {
		return "agg"
	}
	return "topk"
}
