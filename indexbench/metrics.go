package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"pgrid/internal/overlay"
)

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// figure is a metric with the number of samples behind it.
type figure struct {
	name    string
	value   float64
	unit    string
	samples int
}

// figures is an ordered metric set.
type figures struct{ list []figure }

func (f *figures) add(name string, v float64, unit string, n int) {
	f.list = append(f.list, figure{name, v, unit, n})
}

func (f *figures) print(w io.Writer) {
	for _, x := range f.list {
		fmt.Fprintf(w, "metric %-40s %14.4f %-8s n=%d\n", x.name, x.value, x.unit, x.samples)
	}
}

// json returns the figures BENCHMARK.json lists; the others are printed only.
func (f *figures) json() map[string]metric {
	m := map[string]metric{}
	for _, x := range f.list {
		if listed[x.name] {
			m[x.name] = metric{Value: x.value, Unit: x.unit}
		}
	}
	return m
}

// listed names the metrics BENCHMARK.json declares. Figures that exist on
// one workload only (write latencies, per-message breakdowns) are printed
// but kept out of the result line, which carries the same names on every
// workload.
var listed = map[string]bool{}

func init() {
	for _, n := range strings.Fields(`
		setup_s ops_per_s p50_ms p99_ms items_per_s heap_mb
		gate.self_ms_p50 gate.resp_kb_per_op gate.shed_frac
		network.calls_per_op network.call_ms_p50 network.wire_ms_p50 network.bytes_per_op network.call_fail_frac
		overlay.hops_per_op overlay.race_calls_per_hop overlay.cache_hit_frac overlay.handler_self_ms_p50
		overlay.partitions_per_range overlay.build_rounds overlay.interactions_per_peer overlay.keys_moved_per_peer
		overlay.replicate_s overlay.construct_s overlay.maint_kb_per_s
		overlay.syncs_insync overlay.syncs_delta overlay.syncs_full
		replication.lookup_us.mem replication.lookup_us.disk replication.insert_us.mem replication.insert_us.disk
		replication.delete_us.mem replication.delete_us.disk
		replication.scan_us_per_item.mem replication.scan_us_per_item.disk
		replication.checkpoint_ms replication.checkpoints replication.disk_bytes_per_user_byte
		replication.segments replication.wal_records replication.tombstones
		runtime.alloc_kb_per_op runtime.gc_cpu_frac trace.overhead_frac`) {
		listed[n] = true
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// subWindows is how many equal slices the measured window is cut into.
// Throughput, p50 and p99 are the medians of their per-slice values. On a
// shared host CPU steal comes in episodes; a slice-wise median lets an
// episode that covers less than half the window leave the figure alone,
// where one p99 over the whole window moved by up to 2x.
const subWindows = 5

// endToEnd computes the user-visible figures of one measured window.
func endToEnd(ph *phase) *figures {
	type slice struct {
		lat []float64
		ok  int
	}
	sl := make([]slice, subWindows)
	width := ph.to.Sub(ph.from) / subWindows
	var wlat []float64
	var ok, failed, items int
	for _, r := range ph.results {
		i := min(int(r.start.Sub(ph.from)/width), subWindows-1)
		sl[i].lat = append(sl[i].lat, ms(r.latency))
		if r.kind == opInsert || r.kind == opDelete {
			wlat = append(wlat, ms(r.latency))
		}
		if r.ok {
			ok++
			sl[i].ok++
			items += r.items
		} else {
			failed++
		}
	}
	var opsS, p50, p99 []float64
	for _, x := range sl {
		opsS = append(opsS, float64(x.ok)/width.Seconds())
		p50 = append(p50, quantile(x.lat, 0.5))
		p99 = append(p99, quantile(x.lat, 0.99))
	}
	f := &figures{}
	f.add("ops_per_s", median(opsS), "ops/s", ok)
	f.add("p50_ms", median(p50), "ms", len(ph.results))
	f.add("p99_ms", median(p99), "ms", len(ph.results))
	if len(wlat) > 0 {
		f.add("write_p50_ms", quantile(wlat, 0.5), "ms", len(wlat))
		f.add("write_p99_ms", quantile(wlat, 0.99), "ms", len(wlat))
	}
	// Payload per answer is taken over the whole window: answer sizes are
	// heavy-tailed, and a slice holds too few of the large ones.
	f.add("items_per_s", median(opsS)*mean(float64(items), ok), "items/s", ok)
	f.add("failed_frac", mean(float64(failed), len(ph.results)), "ratio", len(ph.results))
	return f
}

func (f *figures) opsPerS() float64 {
	for _, x := range f.list {
		if x.name == "ops_per_s" {
			return x.value
		}
	}
	return 0
}

func (f *figures) setup(setups []float64, heapMB float64) {
	f.add("setup_s", median(append([]float64(nil), setups...)), "s", len(setups))
	f.add("heap_mb", heapMB, "MiB", 1)
}

// runtimeSample is the Go runtime's cumulative allocation and CPU account.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2)}
}

// maintSample is the cluster's cumulative maintenance account.
type maintSample struct{ bytes, insync, delta, full float64 }

func (d *deployment) maintSample() maintSample {
	var m overlay.MetricsSnapshot
	for _, p := range d.peers {
		m = m.Merge(p.MetricsSnapshot())
	}
	return maintSample{m.MaintenanceBytes, m.SyncsInSync, m.SyncsDelta, m.SyncsFull}
}

// routed names the messages that carry an operation towards its partition:
// their calls are the α-race attempts behind each hop.
var routed = map[string]bool{"Query": true, "Range": true, "Insert": true, "Delete": true}

// perLayer computes the per-layer figures of a traced window. A span is on
// an operation's path when it links back to a client request: through the
// gate's calls, the handlers they reached and the calls those made, α-race
// losers included. network.calls_per_op and overlay.race_calls_per_hop so
// count all the work an operation sets off, not only its winning route.
func perLayer(t *trace, rs []result) *figures {
	f := &figures{}
	var respBytes, hops, lookups, hits, ranges, parts, shed int
	for _, r := range rs {
		respBytes += r.respBytes
		hops += r.hops
		if r.shed {
			shed++
		}
		switch r.kind {
		case opLookup:
			lookups++
			if r.cacheHit {
				hits++
			}
		case opRange:
			ranges++
			parts += r.parts
		}
	}
	var gateSelf, opCall, opWire, opHandler []float64
	callMS, wireMS, handlerMS := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var ops, opCalls, opBytes, calls, callFails, raceCalls int
	for i, s := range t.spans {
		onPath := t.root[i] >= 0
		dur, self := float64(s.end-s.start)/1e6, float64(t.selfNS[i])/1e6
		switch s.kind {
		case kindClient:
			ops++
			gateSelf = append(gateSelf, self)
		case kindCall:
			calls++
			if s.failed {
				callFails++
			}
			callMS[s.name] = append(callMS[s.name], dur)
			matched := len(t.children[i]) > 0 && !s.failed
			if matched {
				wireMS[s.name] = append(wireMS[s.name], self)
			}
			if onPath {
				opCalls++
				opBytes += int(s.bytes)
				opCall = append(opCall, dur)
				if matched {
					opWire = append(opWire, self)
				}
				if !s.gate && routed[s.name] {
					raceCalls++
				}
			}
		case kindHandle:
			handlerMS[s.name] = append(handlerMS[s.name], self)
			if onPath {
				opHandler = append(opHandler, self)
			}
		}
	}
	f.add("gate.self_ms_p50", median(gateSelf), "ms", len(gateSelf))
	f.add("gate.resp_kb_per_op", mean(float64(respBytes)/1024, len(rs)), "KiB", len(rs))
	f.add("gate.shed_frac", mean(float64(shed), len(rs)), "ratio", len(rs))
	f.add("network.calls_per_op", mean(float64(opCalls), ops), "count", ops)
	f.add("network.call_ms_p50", median(opCall), "ms", len(opCall))
	f.add("network.wire_ms_p50", median(opWire), "ms", len(opWire))
	f.add("network.bytes_per_op", mean(float64(opBytes), ops), "B", ops)
	f.add("network.call_fail_frac", mean(float64(callFails), calls), "ratio", calls)
	for _, n := range sortedKeys(callMS) {
		f.add("network.call_ms_p50."+n, median(callMS[n]), "ms", len(callMS[n]))
	}
	for _, n := range sortedKeys(wireMS) {
		f.add("network.wire_ms_p50."+n, median(wireMS[n]), "ms", len(wireMS[n]))
	}
	f.add("overlay.hops_per_op", mean(float64(hops), len(rs)), "count", len(rs))
	f.add("overlay.race_calls_per_hop", mean(float64(raceCalls), hops), "count", hops)
	f.add("overlay.cache_hit_frac", mean(float64(hits), lookups), "ratio", lookups)
	f.add("overlay.handler_self_ms_p50", median(opHandler), "ms", len(opHandler))
	for _, n := range sortedKeys(handlerMS) {
		f.add("overlay.handler_self_ms_p50."+n, median(handlerMS[n]), "ms", len(handlerMS[n]))
	}
	f.add("overlay.partitions_per_range", mean(float64(parts), ranges), "count", ranges)
	return f
}

func sortedKeys(m map[string][]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (f *figures) construction(b buildFacts) {
	f.add("overlay.build_rounds", float64(b.Rounds), "count", 1)
	f.add("overlay.interactions_per_peer", b.InteractionsPerPeer, "count", 1)
	f.add("overlay.keys_moved_per_peer", b.KeysMovedPerPeer, "count", 1)
	f.add("overlay.replicate_s", b.ReplicateS, "s", 1)
	f.add("overlay.construct_s", b.ConstructS, "s", 1)
}

func (f *figures) maintenance(from, to maintSample, window time.Duration) {
	f.add("overlay.maint_kb_per_s", (to.bytes-from.bytes)/1024/window.Seconds(), "KiB/s", 1)
	f.add("overlay.syncs_insync", to.insync-from.insync, "count", 1)
	f.add("overlay.syncs_delta", to.delta-from.delta, "count", 1)
	f.add("overlay.syncs_full", to.full-from.full, "count", 1)
}

// runtime reports the whole process's allocation and GC share over the
// untraced window, so span recording does not inflate them.
func (f *figures) runtime(from, to runtimeSample, ops int) {
	f.add("runtime.alloc_kb_per_op", mean((to.allocBytes-from.allocBytes)/1024, ops), "KiB", ops)
	gc := 0.0
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		gc = (to.gcCPU - from.gcCPU) / cpu
	}
	f.add("runtime.gc_cpu_frac", gc, "ratio", 1)
}

func (f *figures) replication(r replayResult) {
	for _, eng := range []string{"mem", "disk"} {
		e := r.engines[eng]
		f.add("replication.lookup_us."+eng, e.lookupUS, "us", 1)
		f.add("replication.insert_us."+eng, e.insertUS, "us", 1)
		f.add("replication.delete_us."+eng, e.deleteUS, "us", 1)
		f.add("replication.scan_us_per_item."+eng, e.scanUSPerItem, "us", 1)
	}
	f.add("replication.checkpoint_ms", r.checkpointMS, "ms", r.checkpoints)
	f.add("replication.checkpoints", float64(r.checkpoints), "count", 1)
	f.add("replication.disk_bytes_per_user_byte", r.diskBytesPerUserByte, "ratio", 1)
	f.add("replication.segments", float64(r.segments), "count", 1)
	f.add("replication.wal_records", float64(r.walRecords), "count", 1)
	f.add("replication.tombstones", float64(r.tombstones), "count", 1)
}

// quiesce waits for maintenance to spread the run's writes, then checks
// with consistent lookups that every acknowledged insert is visible and no
// acknowledged delete came back. Each term checked is one attempted
// operation; a term still wrong after the grace period is one failure.
func quiesce(ctx context.Context, c *client, gens []*generator, every time.Duration) (attempted, failed int, errs []string) {
	live, gone := map[string][]string{}, map[string][]string{}
	for _, g := range gens {
		for _, p := range g.acked {
			live[p.term] = append(live[p.term], p.doc)
		}
		for _, p := range g.gone {
			gone[p.term] = append(gone[p.term], p.doc)
		}
	}
	pending := map[string]bool{}
	for t := range live {
		pending[t] = true
	}
	for t := range gone {
		pending[t] = true
	}
	attempted = len(pending)
	deadline := time.Now().Add(20 * every)
	for len(pending) > 0 && ctx.Err() == nil {
		last := time.Now().After(deadline)
		for term := range pending {
			r, err := c.do(ctx, op{kind: opLookup, term: term}, true)
			if err == nil && r.ok {
				err = quiesced(term, c.last, live[term], gone[term])
			}
			if err == nil {
				delete(pending, term)
			} else if last {
				failed++
				if len(errs) < 5 {
					errs = append(errs, "quiesced check: "+err.Error())
				}
			}
		}
		if last {
			break
		}
		time.Sleep(every)
	}
	return attempted, failed, errs
}
