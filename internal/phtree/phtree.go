// Package phtree implements the PH-tree baseline: a space-efficient
// bit-interleaved prefix-sharing trie for high-dimensional points (Zäschke,
// Zimmerli, Norrie; SIGMOD 2014), which the paper uses to index the raw 50-
// to 100-dimensional embedding vectors directly, without the S1 -> S2
// transform.
//
// This is a simplified reimplementation sufficient for the comparison:
//
//   - coordinates are quantized to 32-bit integers per dimension;
//   - each trie level branches on the d-bit hypercube address formed by one
//     bit from every dimension (requiring d <= 64, which holds for the
//     paper's 50-d default; 100-d callers must split the vector);
//   - single-point subtrees are stored as leaf entries, so chains of
//     one-child nodes never form;
//   - every node keeps the float MBR of its subtree, giving exact best-first
//     k-nearest-neighbor search.
//
// The baseline preserves the property the paper's Figure 3 demonstrates:
// in tens of dimensions the trie offers almost no pruning, so query cost
// approaches the linear scan.
package phtree

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Config parameterizes the tree.
type Config struct {
	// Bits is the quantization width per dimension (<= 32). Fewer bits make
	// shallower tries at the cost of resolution; 16 is plenty for kNN
	// candidate generation since exact distances re-rank candidates.
	Bits int
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config { return Config{Bits: 16} }

// Tree is a PH-tree over n points of dimension d (d <= 64).
type Tree struct {
	dim    int
	bits   int
	coords []float64 // row-major, stride dim
	n      int

	lo, scale []float64 // per-dim quantization transform
	keys      []uint32  // quantized coords, row-major, stride dim

	root *phNode
}

type phNode struct {
	level    int // bit level this node branches on (bits-1 .. 0)
	children map[uint64]*entry
	mbrLo    []float64
	mbrHi    []float64
	count    int
}

type entry struct {
	child *phNode // non-nil for subtree entries
	point int32   // point id for leaf entries (child == nil)
}

// New builds a PH-tree over the given row-major coordinates.
func New(dim int, coords []float64, cfg Config) (*Tree, error) {
	if dim <= 0 || dim > 64 {
		return nil, fmt.Errorf("phtree: dimension %d outside [1,64]", dim)
	}
	if cfg.Bits <= 0 || cfg.Bits > 32 {
		cfg.Bits = DefaultConfig().Bits
	}
	if len(coords)%dim != 0 {
		return nil, errors.New("phtree: coords length is not a multiple of dim")
	}
	t := &Tree{dim: dim, bits: cfg.Bits, coords: coords, n: len(coords) / dim}
	if t.n == 0 {
		return t, nil
	}
	t.quantize()
	t.root = t.newNode(t.bits - 1)
	for i := 0; i < t.n; i++ {
		t.insert(t.root, int32(i))
	}
	return t, nil
}

// N returns the number of indexed points.
func (t *Tree) N() int { return t.n }

// NumNodes returns the number of trie nodes (for size reporting).
func (t *Tree) NumNodes() int {
	var walk func(n *phNode) int
	walk = func(n *phNode) int {
		if n == nil {
			return 0
		}
		total := 1
		for _, e := range n.children {
			if e.child != nil {
				total += walk(e.child)
			}
		}
		return total
	}
	return walk(t.root)
}

func (t *Tree) quantize() {
	d := t.dim
	t.lo = make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		t.lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for i := 0; i < t.n; i++ {
		for j := 0; j < d; j++ {
			v := t.coords[i*d+j]
			if v < t.lo[j] {
				t.lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	t.scale = make([]float64, d)
	maxQ := float64(uint64(1)<<uint(t.bits)) - 1
	for j := 0; j < d; j++ {
		span := hi[j] - t.lo[j]
		if span <= 0 {
			t.scale[j] = 0
		} else {
			t.scale[j] = maxQ / span
		}
	}
	t.keys = make([]uint32, t.n*d)
	for i := 0; i < t.n; i++ {
		for j := 0; j < d; j++ {
			t.keys[i*d+j] = uint32((t.coords[i*d+j] - t.lo[j]) * t.scale[j])
		}
	}
}

func (t *Tree) newNode(level int) *phNode {
	return &phNode{
		level:    level,
		children: make(map[uint64]*entry),
		mbrLo:    infSlice(t.dim, 1),
		mbrHi:    infSlice(t.dim, -1),
	}
}

func infSlice(d int, sign int) []float64 {
	s := make([]float64, d)
	for i := range s {
		s[i] = math.Inf(sign)
	}
	return s
}

// address extracts the d-bit hypercube address of point id at bit level.
func (t *Tree) address(id int32, level int) uint64 {
	var addr uint64
	base := int(id) * t.dim
	for j := 0; j < t.dim; j++ {
		addr = addr<<1 | uint64(t.keys[base+j]>>uint(level)&1)
	}
	return addr
}

// highestDifferingLevel returns the highest bit level at which the two
// points' hypercube addresses differ, or -1 if the quantized keys are
// identical.
func (t *Tree) highestDifferingLevel(a, b int32, from int) int {
	for l := from; l >= 0; l-- {
		if t.address(a, l) != t.address(b, l) {
			return l
		}
	}
	return -1
}

func (t *Tree) expandMBR(n *phNode, id int32) {
	base := int(id) * t.dim
	for j := 0; j < t.dim; j++ {
		v := t.coords[base+j]
		if v < n.mbrLo[j] {
			n.mbrLo[j] = v
		}
		if v > n.mbrHi[j] {
			n.mbrHi[j] = v
		}
	}
}

func (t *Tree) insert(n *phNode, id int32) {
	t.expandMBR(n, id)
	n.count++
	var addr uint64
	if n.level < 0 {
		// Duplicates bucket: quantized keys identical, key by point id.
		addr = uint64(id)
	} else {
		addr = t.address(id, n.level)
	}
	e, ok := n.children[addr]
	if !ok {
		n.children[addr] = &entry{child: nil, point: id}
		return
	}
	if e.child != nil {
		t.insert(e.child, id)
		return
	}
	// Collision with a leaf entry: create the deepest node that separates
	// the two points, so one-child chains never materialize.
	other := e.point
	diff := t.highestDifferingLevel(id, other, n.level-1)
	if diff < 0 {
		// Identical quantized keys: bucket them in a level -1 "duplicates"
		// node keyed by point id.
		dup := t.newNode(-1)
		t.insert(dup, other)
		t.insert(dup, id)
		n.children[addr] = &entry{child: dup}
		return
	}
	child := t.newNode(diff)
	t.insert(child, other)
	t.insert(child, id)
	n.children[addr] = &entry{child: child}
}

// mbrMinSqDist returns the squared distance from q to the node's MBR.
func mbrMinSqDist(lo, hi, q []float64) float64 {
	var s float64
	for j, v := range q {
		if v < lo[j] {
			d := lo[j] - v
			s += d * d
		} else if v > hi[j] {
			d := v - hi[j]
			s += d * d
		}
	}
	return s
}

func (t *Tree) sqDist(id int32, q []float64) float64 {
	base := int(id) * t.dim
	var s float64
	for j, v := range q {
		d := t.coords[base+j] - v
		s += d * d
	}
	return s
}

// Neighbor is one kNN result.
type Neighbor struct {
	ID     int32
	SqDist float64
}

type pqItem struct {
	node  *phNode
	point int32 // -1 for node items
	key   float64
}

type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// KNN returns the k nearest neighbors of q in exact order, skipping points
// for which skip returns true (used to exclude known E-edges). It also
// reports how many trie nodes were visited — the cost measure that shows
// the high-dimensional pruning collapse of Figure 3.
func (t *Tree) KNN(q []float64, k int, skip func(int32) bool) (res []Neighbor, nodesVisited int) {
	if t.root == nil || k <= 0 {
		return nil, 0
	}
	if len(q) != t.dim {
		panic(fmt.Sprintf("phtree: query dimension %d, want %d", len(q), t.dim))
	}
	h := &pq{}
	heap.Push(h, pqItem{node: t.root, point: -1, key: mbrMinSqDist(t.root.mbrLo, t.root.mbrHi, q)})
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.point >= 0 {
			res = append(res, Neighbor{ID: it.point, SqDist: it.key})
			if len(res) >= k {
				return res, nodesVisited
			}
			continue
		}
		nodesVisited++
		for _, e := range it.node.children {
			if e.child != nil {
				heap.Push(h, pqItem{node: e.child, point: -1,
					key: mbrMinSqDist(e.child.mbrLo, e.child.mbrHi, q)})
				continue
			}
			if skip != nil && skip(e.point) {
				continue
			}
			heap.Push(h, pqItem{point: e.point, key: t.sqDist(e.point, q)})
		}
	}
	return res, nodesVisited
}
