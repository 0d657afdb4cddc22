package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"vkgraph/vkg"
)

// promText is a scrape of a Prometheus text page: series (name plus
// labels, as printed) to value.
type promText map[string]float64

func parseProm(r io.Reader) (promText, error) {
	out := make(promText)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeHTTP reads a server's /metrics page.
func scrapeHTTP(c *http.Client, url string) (promText, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// scrapeEngine renders an engine's registry as /metrics would.
func scrapeEngine(v *vkg.VKG) (promText, error) {
	var b bytes.Buffer
	if err := v.Engine().Registry().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// sum adds every series of the family name, whatever its labels.
func (p promText) sum(name string) float64 {
	var s float64
	for series, v := range p {
		if fam, _, _ := strings.Cut(series, "{"); fam == name {
			s += v
		}
	}
	return s
}

// histDelta is the difference of one histogram between two scrapes.
type histDelta struct {
	bounds []float64 // ascending upper bounds, +Inf last
	counts []float64 // cumulative
	sum    float64
	count  float64
}

func histogramDelta(before, after promText, name string) histDelta {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		leStr := series[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := math.Inf(1)
		if leStr != "+Inf" {
			le, _ = strconv.ParseFloat(leStr, 64)
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	h := histDelta{sum: after.sum(name+"_sum") - before.sum(name+"_sum"),
		count: after.sum(name+"_count") - before.sum(name+"_count")}
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.counts = append(h.counts, b.n)
	}
	return h
}

func (h histDelta) mean() float64 { return ratio(h.sum, h.count) }

// quantile interpolates linearly inside the bucket holding rank q·count.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, c := range h.counts {
		if c >= rank {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*ratio(rank-prev, c-prev)
		}
		lo, prev = h.bounds[i], c
	}
	return lo
}
