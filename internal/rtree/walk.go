package rtree

import (
	"math"
)

// WalkAscending streams point ids in non-decreasing S2 distance from q
// (classic best-first branch-and-bound over the tree). visit receives each
// id with its squared distance and returns false to stop the walk — since
// points arrive in ascending order, returning false at the first point
// outside the caller's (possibly shrinking) search radius is exact.
//
// This is the traversal Algorithm 3's line 5 loop relies on: "examine the
// data points of the query region in increasing distance from q".
func (t *Tree) WalkAscending(q []float64, visit func(id int32, sqDist float64) bool) {
	t.WalkWithin(q, func() float64 { return math.Inf(1) }, visit)
}

// WalkWithin is WalkAscending with a dynamic pruning bound: nodes and
// points whose squared distance exceeds bound() are never pushed onto the
// frontier. The bound may shrink over time (Algorithm 3's radius does);
// growing it mid-walk is not supported.
func (t *Tree) WalkWithin(q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	t.ensureRoot()
	// Node accesses are counted locally and flushed once per walk, so the
	// Lemma 3 cost counters add no atomics to the per-node fast path.
	var accIn, accLf, accPd uint64
	defer func() { t.access.flush(accIn, accLf, accPd) }()
	pq := walkHeap{{n: t.root, d: t.root.mbr.MinSqDist(q)}}
	walkLoop(t.ps, &pq, q, bound, visit, &accIn, &accLf, &accPd)
}

// WalkTreesWithin merges the best-first walks of several trees into one
// ascending stream. All trees must be built over the same PointSet and
// already Ready; node accesses are flushed to the first tree's counters.
// The frontier is seeded with every root, so a tree far from q costs one
// MBR distance check, and the heap's deterministic ordering makes the visit
// sequence ascending (distance, id) however the points are split between
// the trees. The engine walks its one tree with WalkWithin; this entry
// point serves callers holding several trees over one point set, such as
// perfbench's layer replay.
func WalkTreesWithin(trees []*Tree, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	if len(trees) == 1 {
		trees[0].WalkWithin(q, bound, visit)
		return
	}
	var accIn, accLf, accPd uint64
	first := trees[0]
	defer func() { first.access.flush(accIn, accLf, accPd) }()
	b := bound()
	pq := make(walkHeap, 0, len(trees))
	for _, t := range trees {
		t.ensureRoot()
		if d := t.root.mbr.MinSqDist(q); d <= b {
			pq = append(pq, walkItem{n: t.root, d: d})
		}
	}
	pq.init()
	walkLoop(first.ps, &pq, q, bound, visit, &accIn, &accLf, &accPd)
}

// walkLoop drains an initialized frontier in deterministic best-first order.
// Trees sharing the frontier must share ps; LeafCap and friends are not
// consulted, so mixed-option trees are fine. Points enter the frontier
// through PointSet.EachWithin, which re-ranks every emitted distance in
// exact float64 arithmetic — the packed prefilter never changes which
// points arrive or in what order.
func walkLoop(ps *PointSet, pq *walkHeap, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool, accIn, accLf, accPd *uint64) {
	emit := func(id int32, d float64) { pq.push(walkItem{id: id, d: d}) }
	for len(*pq) > 0 {
		it := pq.pop()
		b := bound()
		if it.d > b {
			return // everything left is farther than the bound
		}
		if it.n == nil {
			if !visit(it.id, it.d) {
				return
			}
			continue
		}
		switch {
		case it.n.isInternal():
			*accIn++
			for _, c := range it.n.children {
				if d := c.mbr.MinSqDist(q); d <= b {
					pq.push(walkItem{n: c, d: d})
				}
			}
		case it.n.isLeaf():
			*accLf++
			ps.EachWithin(it.n.leafIDs, q, b, emit)
		default:
			*accPd++
			ps.EachWithin(it.n.part.ids(), q, b, emit)
		}
	}
}

type walkItem struct {
	n  *node // nil for point items
	id int32
	d  float64
}

// walkHeap is the best-first frontier with concrete push/pop methods.
// container/heap would box every walkItem into an interface value — one
// heap allocation per pushed node and per pushed point, which used to be
// the dominant allocation of the whole serving path.
type walkHeap []walkItem

// less orders the frontier by ascending distance; at equal distance nodes
// come before points (so every point at distance d reaches the frontier
// before any is visited) and point ties break by ascending id. The visit
// order is therefore exactly ascending (distance, id) — a total order over
// the data, independent of the tree structure — which keeps walks over
// differently cracked trees bit-identical.
func (h walkHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	in, jn := h[i].n != nil, h[j].n != nil
	if in != jn {
		return in
	}
	return h[i].id < h[j].id
}

func (h *walkHeap) push(it walkItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *walkHeap) pop() walkItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s[:n].down(0)
	return top
}

func (h walkHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h.less(r, l) {
			l = r
		}
		if !h.less(l, i) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// init establishes the heap property over an unordered backing slice.
func (h walkHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
