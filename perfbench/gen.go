package main

import (
	"fmt"
	"math/rand"

	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// The workload generator. Every input comes from the graph's own triples
// and the run's seed; the program under test only ever sees the generated
// queries and updates.

// key is one top-k or aggregate query key. HasAttr reports whether the
// opposite endpoint of the triple the key was drawn from, an entity of the
// kind the query predicts, carries the workload's attribute: whether an
// attribute aggregate makes sense. It is worked out when the keys are
// drawn, because the graph may not be read while updates run.
type key struct {
	Dir     vkg.Direction
	Entity  vkg.EntityID
	Rel     vkg.RelationID
	HasAttr bool
}

// distinctKeys is the distinct-key sampler: every distinct (direction,
// entity, relation) key of the graph's triples, in an order drawn from
// seed, truncated to n when n > 0. The same graph and seed always give the
// same sequence.
func distinctKeys(g *kg.Graph, attr string, seed int64, n int) []key {
	type id struct {
		dir vkg.Direction
		e   vkg.EntityID
		r   vkg.RelationID
	}
	seen := make(map[id]bool)
	var keys []key
	for _, tr := range g.Triples() {
		_, tailAttr := g.Attr(attr, tr.T)
		_, headAttr := g.Attr(attr, tr.H)
		for _, k := range [2]key{
			{Dir: vkg.Tails, Entity: tr.H, Rel: tr.R, HasAttr: tailAttr},
			{Dir: vkg.Heads, Entity: tr.T, Rel: tr.R, HasAttr: headAttr},
		} {
			i := id{k.Dir, k.Entity, k.Rel}
			if !seen[i] {
				seen[i] = true
				keys = append(keys, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if n > 0 && n < len(keys) {
		keys = keys[:n]
	}
	return keys
}

// zipfKeys is the Zipf key sampler: key i of the universe is drawn with
// probability proportional to 1/(1+i)^s. The universe order comes from the
// distinct-key sampler, so which keys are hot depends on the seed too.
type zipfKeys struct {
	keys []key
	z    *rand.Zipf
}

func newZipfKeys(keys []key, s float64, seed int64) *zipfKeys {
	rng := rand.New(rand.NewSource(seed))
	return &zipfKeys{keys: keys, z: rand.NewZipf(rng, s, 1, uint64(len(keys)-1))}
}

func (z *zipfKeys) next() key { return z.keys[z.z.Uint64()] }

type opKind uint8

const (
	opTopK opKind = iota
	opAgg
	opAddFact
	opSetAttr
	opInsert
	numOpKinds
)

var opNames = [numOpKinds]string{"topk", "agg", "addfact", "setattr", "insert"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool { return k >= opAddFact }

// mixSampler is the op-mix sampler: it draws op kinds with the weights of
// a workload's mix.
type mixSampler struct {
	cum []float64
	rng *rand.Rand
}

func newMixSampler(mix map[string]float64, rng *rand.Rand) (*mixSampler, error) {
	m := &mixSampler{cum: make([]float64, numOpKinds), rng: rng}
	seen := 0
	var total float64
	for k := opKind(0); k < numOpKinds; k++ {
		w := mix[k.String()]
		if w < 0 {
			return nil, fmt.Errorf("negative weight for %s", k)
		}
		if _, ok := mix[k.String()]; ok {
			seen++
		}
		total += w
		m.cum[k] = total
	}
	if seen != len(mix) || total <= 0 {
		return nil, fmt.Errorf("bad op mix %v", mix)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m, nil
}

func (m *mixSampler) next() opKind {
	u := m.rng.Float64()
	for k := opKind(0); k < numOpKinds; k++ {
		if u < m.cum[k] {
			return k
		}
	}
	return opTopK // unreachable: the last cumulative weight is 1
}

// op is one generated operation.
type op struct {
	kind opKind
	seq  int64 // position in the key sequence, for sampling
	key  key
	q    vkg.Query // topk, agg

	fact fact // addfact

	entity vkg.EntityID // setattr
	value  float64

	name, typ string // insert
	facts     []vkg.Fact
	attrs     map[string]float64
}

// fact is one (head, relation, tail) triple.
type fact struct {
	h vkg.EntityID
	r vkg.RelationID
	t vkg.EntityID
}

// predictedFact turns a top-k answer's best prediction into the fact it
// predicts: the "AddFact of a just-predicted fact" write.
func predictedFact(k key, res *vkg.TopKResult) (fact, bool) {
	if res == nil || len(res.Predictions) == 0 {
		return fact{}, false
	}
	p := res.Predictions[0].Entity
	if k.Dir == vkg.Tails {
		return fact{h: k.Entity, r: k.Rel, t: p}, true
	}
	return fact{h: p, r: k.Rel, t: k.Entity}, true
}

func topKQuery(k key) vkg.Query {
	return vkg.Query{Kind: vkg.TopK, Dir: k.Dir, Entity: k.Entity, Relation: k.Rel, K: topK}
}

// aggKeys is how many keys aggregates are drawn from: enough that one key's
// ball does not set a run's tail, few enough that the single-caller
// convergence pass can run both aggregates of every one of them.
const aggKeys = 512

// attrKeys returns the first aggKeys of the workload's keys whose
// predicted entities carry the aggregated attribute.
func (r *runner) attrKeys() []key {
	var out []key
	for _, k := range r.keys {
		if len(out) == aggKeys {
			break
		}
		if k.HasAttr {
			out = append(out, k)
		}
	}
	return out
}

// aggQuery builds the aggregate for k: AVG of the workload's attribute
// when the predicted kind of entity carries it and avg is set, COUNT
// otherwise.
func (w workload) aggQuery(k key, avg bool) vkg.Query {
	spec := vkg.AggSpec{Kind: vkg.Count, MaxAccess: maxAccess}
	if k.HasAttr && avg {
		spec.Kind, spec.Attr = vkg.Avg, w.Attr
	}
	return vkg.Query{Kind: vkg.Aggregate, Dir: k.Dir, Entity: k.Entity, Relation: k.Rel, Agg: spec}
}

// writeBase is what update ops are drawn from: the graph's initial
// triples and entity types, captured before any update runs.
type writeBase struct {
	triples []kg.Triple
	types   []string
}

func newWriteBase(g *kg.Graph) *writeBase {
	types := make([]string, g.NumEntities())
	for i := range types {
		types[i] = g.Entity(vkg.EntityID(i)).Type
	}
	n := g.NumTriples()
	return &writeBase{triples: g.Triples()[:n:n], types: types}
}

// gen returns the update generator of one caller.
func (b *writeBase) gen(attr string, rng *rand.Rand, caller int) *writeGen {
	return &writeGen{writeBase: b, attr: attr, rng: rng, caller: caller}
}

// writeGen draws the update ops of one caller.
type writeGen struct {
	*writeBase
	attr   string
	rng    *rand.Rand
	caller int
	n      int
}

// fill completes a write op of the given kind. addfact needs last, the
// caller's latest predicted fact; without one it degrades to setattr.
func (w *writeGen) fill(kind opKind, last fact, haveLast bool) op {
	w.n++
	if kind == opAddFact && !haveLast {
		kind = opSetAttr
	}
	switch kind {
	case opAddFact:
		return op{kind: kind, fact: last}
	case opSetAttr:
		return op{kind: kind, entity: vkg.EntityID(w.rng.Intn(len(w.types))), value: w.value()}
	default:
		tr := w.triples[w.rng.Intn(len(w.triples))]
		return op{kind: opInsert,
			name:  fmt.Sprintf("perfbench-%d-%d", w.caller, w.n),
			typ:   w.types[tr.H],
			facts: []vkg.Fact{{Rel: tr.R, Other: tr.T, NewIsHead: true}},
			attrs: map[string]float64{w.attr: w.value()},
		}
	}
}

func (w *writeGen) value() float64 { return float64(w.rng.Intn(100000)) / 100 }
