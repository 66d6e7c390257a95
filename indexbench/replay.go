package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
)

// replayEngine is what one standalone-store replay measured on one engine.
type replayEngine struct {
	lookupUS, insertUS, deleteUS, scanUSPerItem float64
}

// replayResult is the replication layer measured in isolation: one
// partition's data and the workload's operations on it, replayed against a
// standalone replication.Store on each engine. The mem store has no WAL,
// the disk store is durable (WAL, checkpoints, segments).
type replayResult struct {
	engines              map[string]replayEngine
	checkpointMS         float64
	checkpoints          int
	diskBytesPerUserByte float64
	segments             int
	walRecords           int
	tombstones           int
}

// timer accumulates the time and count of one kind of store operation.
type timer struct {
	d time.Duration
	n int
}

func (t *timer) time(f func()) {
	s := time.Now()
	f()
	t.d += time.Since(s)
	t.n++
}

func (t timer) us() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.d.Microseconds()) / float64(t.n)
}

// replay loads the partition's items, replays the stream's operations that
// fall into the partition, then deletes a sample of the loaded items. A
// stream without point lookups or scans gets a probe of each (every loaded
// key once; three full scans), so every figure exists on every workload.
func replay(dir string, path keyspace.Path, items []replication.Item, stream []op, c *corpus, threshold int, rec *recorder) (replayResult, error) {
	res := replayResult{engines: map[string]replayEngine{}}
	for _, eng := range []string{replication.EngineMem, replication.EngineDisk} {
		var st *replication.Store
		var err error
		ddir := filepath.Join(dir, "replay-"+eng)
		if eng == replication.EngineDisk {
			st, err = replication.OpenStore(ddir, replication.PersistOptions{Engine: eng, SnapshotThreshold: threshold})
		} else {
			st, err = replication.NewStoreKind(eng)
		}
		if err != nil {
			return res, err
		}
		var ins, del, look, scan, ckpt timer
		var scanned, userBytes int
		mutate := func(f func()) {
			f()
			if !st.Persistent() {
				return
			}
			s := time.Now()
			done, err2 := st.CheckpointIfNeeded()
			if done {
				ckpt.d += time.Since(s)
				ckpt.n++
			}
			if err == nil {
				err = err2
			}
		}
		loop := func(name string, f func()) {
			s := 0
			if rec != nil {
				s = int(rec.now())
			}
			f()
			if rec != nil {
				rec.add(span{id: rec.ids.Add(1), start: int64(s), end: rec.now(), name: "replay." + name + "." + eng, kind: kindReplay})
			}
		}
		loop("load", func() {
			for _, it := range items {
				userBytes += 8 + len(it.Value)
				mutate(func() { ins.time(func() { st.Insert(it) }) })
			}
		})
		loop("stream", func() {
			for _, o := range stream {
				k := c.key(o.term)
				r := keyspace.NewRange(k, c.key(o.hi))
				if o.kind == opRange && !r.OverlapsPath(path) || o.kind != opRange && !k.HasPrefix(path) {
					continue
				}
				switch o.kind {
				case opLookup:
					look.time(func() { st.Lookup(k) })
				case opRange:
					scan.time(func() { st.ScanRange(r, func(replication.Item) bool { scanned++; return true }) })
				case opInsert:
					userBytes += 8 + len(o.doc)
					mutate(func() { ins.time(func() { st.Insert(replication.Item{Key: k, Value: o.doc}) }) })
				case opDelete:
					mutate(func() { del.time(func() { st.Delete(k, o.doc) }) })
				}
			}
		})
		loop("probe", func() {
			if look.n == 0 {
				for _, it := range items {
					look.time(func() { st.Lookup(it.Key) })
				}
			}
			if scanned == 0 {
				all := keyspace.RangeFrom(path.MinKey(keyspace.DefaultDepth))
				for i := 0; i < 3; i++ {
					scan.time(func() { st.ScanRange(all, func(replication.Item) bool { scanned++; return true }) })
				}
			}
		})
		loop("unload", func() {
			for _, it := range items[:len(items)/4] {
				mutate(func() { del.time(func() { st.Delete(it.Key, it.Value) }) })
			}
		})
		e := replayEngine{lookupUS: look.us(), insertUS: ins.us(), deleteUS: del.us()}
		if scanned > 0 {
			e.scanUSPerItem = float64(scan.d.Microseconds()) / float64(scanned)
		}
		res.engines[eng] = e
		if st.Persistent() {
			stats := st.Stats()
			res.segments, res.walRecords, res.tombstones = stats.EngineStats.Segments, stats.WALRecords, stats.Tombstones
			res.checkpoints = ckpt.n
			res.checkpointMS = float64(ckpt.d.Microseconds()) / 1e3 / float64(max(ckpt.n, 1))
			res.diskBytesPerUserByte = float64(dirSize(ddir)) / float64(max(userBytes, 1))
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(ddir); err == nil {
			err = rerr
		}
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // an unreadable entry only makes the size smaller
	})
	return n
}
