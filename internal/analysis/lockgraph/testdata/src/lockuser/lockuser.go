// Package lockuser exercises lockgraph's cross-package machinery: a lock
// class resolved through locklib's exported mutex field, an acquire set
// imported through AcquiresFact, and rank inversions judged against the
// union of both packages' shape-derived ranks.
package lockuser

import (
	"sync"

	"locklib"
)

type engine struct {
	mu    sync.RWMutex
	n     int
	store *locklib.Store
}

// ok: the engine lock alone.
func (e *engine) query() int {
	e.mu.RLock()
	n := e.n
	e.mu.RUnlock()
	return n
}

// ok: nothing held around the foreign call.
func (e *engine) count() int {
	return e.store.Grab()
}

// bad: a foreign engine-ranked lock acquired (through Tick's imported
// acquire set) while a leaf lock is held.
func (e *engine) tickUnderStore(le *locklib.LibEngine) {
	e.store.Mu.Lock()
	le.Tick() // want `lock order inverted: locklib\.LibEngine\.mu \(engine\) acquired while locklib\.Store\.Mu \(leaf\) is held in tickUnderStore`
	e.store.Mu.Unlock()
}

// bad: the engine lock acquired while the leaf store — ranked by
// locklib's own engine shape — is held directly.
func (e *engine) storeThenEngine() {
	e.store.Mu.Lock()
	e.mu.RLock() // want `lock order inverted: lockuser\.engine\.mu \(engine\) acquired while locklib\.Store\.Mu \(leaf\) is held in storeThenEngine`
	e.mu.RUnlock()
	e.store.Mu.Unlock()
}
