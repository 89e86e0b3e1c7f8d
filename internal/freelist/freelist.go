// Package freelist keeps idle buffers for reuse across simulation runs.
package freelist

import "sync"

// List holds idle values of type V by key K. A run takes a value of
// its key when one is idle and hands it back when done, so a warm
// process stops allocating and zeroing large per-run buffers. Unlike a
// sync.Pool, a List never drops a value at a garbage collection, so
// whether a run allocates does not depend on GC timing. It retains one
// value per key for each run that held one concurrently, for the life
// of the process. A List is safe for concurrent use; its zero value is
// empty and ready.
type List[K comparable, V any] struct {
	mu   sync.Mutex
	idle map[K][]V
}

// Take removes and returns an idle value of key k, most recently Put
// first; ok is false when none is idle.
func (l *List[K, V]) Take(k K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idle := l.idle[k]
	if len(idle) == 0 {
		return v, false
	}
	v = idle[len(idle)-1]
	idle[len(idle)-1] = *new(V)
	l.idle[k] = idle[:len(idle)-1]
	return v, true
}

// Put hands v back as an idle value of key k. The caller must not use
// v afterwards.
func (l *List[K, V]) Put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.idle == nil {
		l.idle = make(map[K][]V)
	}
	l.idle[k] = append(l.idle[k], v)
}
