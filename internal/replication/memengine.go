package replication

// The in-memory storage engine: the flat map the Store grew up with, now
// isolated behind the Engine interface, plus a sorted index of its live
// keys. Buckets are keyed by key bit string, so Get and Put stay O(1).
// Writes only note what they disturbed — a new key goes on a pending list,
// a bucket that got a value out of order is marked — and the first read
// after a write normalises the engine once: it merges the sorted pending
// keys into the index and re-sorts the marked buckets in place. From then
// on a prefix scan binary-searches the index and streams the buckets as
// they are, so its cost grows with the answer, not with the store.

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// memEngine implements Engine over a map of per-key buckets. It relies on
// the Store's lock for mutual exclusion between writes and reads; the one
// thing concurrent readers share is the lazy normalisation, which its own
// mutex serialises.
type memEngine struct {
	buckets map[string][]PairRecord
	n       int

	// keys is the sorted index of the live keys as of the last
	// normalisation; emptied buckets stay in it until the next one.
	keys []string
	// pending holds the keys created since the last normalisation.
	pending []string
	// unsorted marks buckets whose values are out of value order.
	unsorted map[string]struct{}
	// emptied counts buckets deleted since the last normalisation.
	emptied int
	// dirty is set by every write that left work for normalise; mu
	// serialises the readers racing to do it.
	dirty atomic.Bool
	mu    sync.Mutex
}

// newMemEngine returns an empty in-memory engine.
func newMemEngine() *memEngine {
	return &memEngine{buckets: make(map[string][]PairRecord)}
}

func (e *memEngine) Get(key, value string) (PairRecord, bool) {
	// A concurrent reader may be re-sorting this bucket in place.
	if e.dirty.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	for _, rec := range e.buckets[key] {
		if rec.Value == value {
			return rec, true
		}
	}
	return PairRecord{}, false
}

func (e *memEngine) Put(rec PairRecord, isNew bool) {
	b := e.buckets[rec.Key]
	if !isNew {
		for i := range b {
			if b[i].Value == rec.Value {
				b[i] = rec
				return
			}
		}
	}
	switch {
	case len(b) == 0:
		e.pending = append(e.pending, rec.Key)
		e.dirty.Store(true)
	case b[len(b)-1].Value > rec.Value:
		e.markUnsorted(rec.Key)
	}
	e.buckets[rec.Key] = append(b, rec)
	e.n++
}

func (e *memEngine) Delete(key, value string) (PairRecord, bool) {
	b := e.buckets[key]
	for i, rec := range b {
		if rec.Value == value {
			last := len(b) - 1
			b[i] = b[last]
			b = b[:last]
			switch {
			case len(b) == 0:
				delete(e.buckets, key)
				e.emptied++
				e.dirty.Store(true)
			case i < last && len(b) > 1:
				e.markUnsorted(key)
			}
			if len(b) > 0 {
				e.buckets[key] = b
			}
			e.n--
			return rec, true
		}
	}
	return PairRecord{}, false
}

// markUnsorted queues a bucket for re-sorting by the next normalisation.
func (e *memEngine) markUnsorted(key string) {
	if e.unsorted == nil {
		e.unsorted = make(map[string]struct{})
	}
	e.unsorted[key] = struct{}{}
	e.dirty.Store(true)
}

// normalise brings the index and the buckets in order after writes. Reads
// call it first; under the Engine contract no write runs concurrently with
// a read, so the only contention is between readers, and the first one to
// take mu does the work for all of them.
func (e *memEngine) normalise() {
	if !e.dirty.Load() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.dirty.Load() {
		return
	}
	for key := range e.unsorted {
		slices.SortFunc(e.buckets[key], func(a, b PairRecord) int { return strings.Compare(a.Value, b.Value) })
	}
	e.unsorted = nil
	if len(e.pending) > 0 || e.emptied > 0 {
		e.keys = e.mergeKeys()
		e.pending, e.emptied = nil, 0
	}
	e.dirty.Store(false)
}

// mergeKeys merges the sorted pending keys into the index, dropping keys
// whose bucket is gone and keys recorded twice (deleted and created again).
// The result is sized exactly so the index holds no slack.
func (e *memEngine) mergeKeys() []string {
	slices.Sort(e.pending)
	merged := make([]string, 0, len(e.keys)+len(e.pending))
	keep := func(key string) {
		if _, live := e.buckets[key]; live && (len(merged) == 0 || merged[len(merged)-1] != key) {
			merged = append(merged, key)
		}
	}
	i, j := 0, 0
	for i < len(e.keys) || j < len(e.pending) {
		if j == len(e.pending) || (i < len(e.keys) && e.keys[i] <= e.pending[j]) {
			keep(e.keys[i])
			i++
		} else {
			keep(e.pending[j])
			j++
		}
	}
	if len(merged) < cap(merged) {
		merged = slices.Clone(merged)
	}
	return merged
}

func (e *memEngine) ScanPrefix(prefix string, fn func(PairRecord) bool) {
	e.normalise()
	// The exact key sorts before every strict extension, so an exact-key
	// consumer that stops early (Lookup) never touches the longer keys.
	i, _ := slices.BinarySearch(e.keys, prefix)
	for ; i < len(e.keys) && hasPrefix(e.keys[i], prefix); i++ {
		for _, rec := range e.buckets[e.keys[i]] {
			if !fn(rec) {
				return
			}
		}
	}
}

func (e *memEngine) ScanKey(key string, fn func(PairRecord) bool) {
	e.normalise()
	for _, rec := range e.buckets[key] {
		if !fn(rec) {
			return
		}
	}
}

func (e *memEngine) Len() int { return e.n }

func (e *memEngine) Close() error { return nil }
