package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/network"
)

// Span kinds. Every span is recorded by this program around a call into
// one layer; nothing is recorded inside the system under test.
const (
	kindClient uint8 = iota // one HTTP request, timed at the client
	kindCall                // an outgoing network.Transport.Call
	kindHandle              // an incoming network.Handler invocation
	kindReplay              // one standalone-store replay loop
)

// span is one timed interval. Call and handler spans carry the endpoints
// they ran between, so a handler can be matched to the call that caused it
// across the wire (the wire protocol carries no span id).
type span struct {
	id, parent uint64
	start, end int64 // ns since the recorder's epoch
	name       string
	kind       uint8
	self, peer int32 // endpoint indexes: call self->peer, handle peer->self
	gate       bool  // a call made by the gate's transport
	failed     bool
	bytes      int32 // WireSize of request plus response
}

type spanKey struct{}

func parentSpan(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// recorder keeps spans in memory while on; they are analysed and written
// out after the run.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	addrs map[network.Addr]int32 // set before traffic, read-only after

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), addrs: map[network.Addr]int32{}} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// setAddrs indexes the peer endpoints; the gate endpoint gets -1.
func (r *recorder) setAddrs(addrs []network.Addr) {
	r.addrs = make(map[network.Addr]int32, len(addrs))
	for i, a := range addrs {
		r.addrs[a] = int32(i)
	}
}

func (r *recorder) index(a network.Addr) int32 {
	if i, ok := r.addrs[a]; ok {
		return i
	}
	return -1
}

// msgName is a message's type without its Request suffix ("Query").
func msgName(m any) string {
	return strings.TrimSuffix(reflect.TypeOf(m).Name(), "Request")
}

// tracedTransport decorates a peer's or the gate's transport with call and
// handler spans.
type tracedTransport struct {
	network.Transport
	rec  *recorder
	gate bool
}

func (r *recorder) wrap(t network.Transport, gateSide bool) network.Transport {
	return &tracedTransport{Transport: t, rec: r, gate: gateSide}
}

// Online keeps the optional interface overlay maintenance type-asserts.
func (t *tracedTransport) Online() bool {
	if o, ok := t.Transport.(interface{ Online() bool }); ok {
		return o.Online()
	}
	return true
}

func (t *tracedTransport) Call(ctx context.Context, to network.Addr, req any) (any, error) {
	if !t.rec.on.Load() {
		return t.Transport.Call(ctx, to, req)
	}
	id := t.rec.ids.Add(1)
	start := t.rec.now()
	resp, err := t.Transport.Call(ctx, to, req)
	end := t.rec.now()
	size := network.MessageSize(req)
	if err == nil {
		size += network.MessageSize(resp)
	}
	t.rec.add(span{
		id: id, parent: parentSpan(ctx), start: start, end: end, name: msgName(req), kind: kindCall,
		self: t.rec.index(t.Addr()), peer: t.rec.index(to), gate: t.gate, failed: err != nil, bytes: int32(size),
	})
	return resp, err
}

func (t *tracedTransport) Handle(h network.Handler) {
	t.Transport.Handle(func(ctx context.Context, from network.Addr, req any) (any, error) {
		if !t.rec.on.Load() {
			return h(ctx, from, req)
		}
		id := t.rec.ids.Add(1)
		start := t.rec.now()
		resp, err := h(context.WithValue(ctx, spanKey{}, id), from, req)
		t.rec.add(span{
			id: id, start: start, end: t.rec.now(), name: msgName(req), kind: kindHandle,
			self: t.rec.index(t.Addr()), peer: t.rec.index(from), failed: err != nil,
		})
		return resp, err
	})
}

// middleware hands the client's span id to the gate's request context, so
// the gate backend's calls become children of the client request.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if id := parseSpanHeader(req); id != 0 {
			req = req.WithContext(context.WithValue(req.Context(), spanKey{}, id))
		}
		next.ServeHTTP(w, req)
	})
}

// trace is the analysed span set of one traced window.
type trace struct {
	spans    []span
	selfNS   []int64 // per span: duration minus the union of its children
	root     []int   // per span: index of its client span, or -1
	children [][]int
}

// analyse links each handler span to the call that caused it (same
// endpoints and message type, started inside the call's interval), computes
// self times and finds each span's client request.
func analyse(spans []span) *trace {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	t := &trace{spans: spans, selfNS: make([]int64, len(spans)), root: make([]int, len(spans)), children: make([][]int, len(spans))}
	byID := make(map[uint64]int, len(spans))
	type link struct {
		from, to int32
		name     string
	}
	calls := map[link][]int{}
	for i, s := range spans {
		byID[s.id] = i
		if s.kind == kindCall {
			calls[link{s.self, s.peer, s.name}] = append(calls[link{s.self, s.peer, s.name}], i)
		}
	}
	matched := make([]bool, len(spans))
	for i := range spans {
		h := &spans[i]
		if h.kind != kindHandle {
			continue
		}
		// The latest-starting unmatched call that encloses the handler. A
		// failed call (an α-race loser the caller cancelled) may return
		// before the remote handler ends; it needs only to have been open
		// when the handler started.
		cands := calls[link{h.peer, h.self, h.name}]
		best := -1
		for _, c := range cands {
			if spans[c].start > h.start {
				break
			}
			if !matched[c] && (spans[c].end >= h.end || spans[c].failed && spans[c].end >= h.start) {
				best = c
			}
		}
		if best >= 0 {
			matched[best] = true
			h.parent = spans[best].id
		}
	}
	for i, s := range spans {
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			t.children[p] = append(t.children[p], i)
		}
	}
	for i, s := range spans {
		t.selfNS[i] = (s.end - s.start) - covered(s, spans, t.children[i])
	}
	for i := range spans {
		t.root[i] = -2
	}
	var rootOf func(i int) int
	rootOf = func(i int) int {
		if t.root[i] != -2 {
			return t.root[i]
		}
		t.root[i] = -1
		switch p, ok := byID[spans[i].parent]; {
		case spans[i].kind == kindClient:
			t.root[i] = i
		case ok && spans[i].parent != 0:
			t.root[i] = rootOf(p)
		}
		return t.root[i]
	}
	for i := range spans {
		rootOf(i)
	}
	return t
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// layerName groups spans into the per-layer self-time table.
func layerName(s span) string {
	switch {
	case s.kind == kindClient:
		return "gate " + s.name
	case s.kind == kindCall && s.gate:
		return "network gate.call." + s.name
	case s.kind == kindCall:
		return "network call." + s.name
	case s.kind == kindHandle:
		return "overlay handle." + s.name
	default:
		return "replication " + s.name
	}
}

// writeTable prints, per layer and span name, the span count, the p50 of
// duration and self time, and the total self time.
func (t *trace) writeTable(w io.Writer) {
	type row struct {
		dur, self []float64
		total     float64
	}
	rows := map[string]*row{}
	for i, s := range t.spans {
		n := layerName(s)
		r := rows[n]
		if r == nil {
			r = &row{}
			rows[n] = r
		}
		r.dur = append(r.dur, float64(s.end-s.start)/1e6)
		r.self = append(r.self, float64(t.selfNS[i])/1e6)
		r.total += float64(t.selfNS[i]) / 1e9
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# per-layer self time (self = span minus the union of its child spans)\n")
	fmt.Fprintf(w, "# %-36s %8s %10s %10s %10s\n", "layer span", "count", "p50_ms", "self_p50", "self_s")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "# %-36s %8d %10.4f %10.4f %10.3f\n", n, len(r.dur), quantile(r.dur, 0.5), quantile(r.self, 0.5), r.total)
	}
}

// dump writes every span, one per line, after the given header lines.
func (t *trace) dump(path string, header []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, h := range header {
		fmt.Fprintf(bw, "# %s\n", h)
	}
	fmt.Fprintln(bw, "id\tparent\tkind\tname\tstart_ns\tend_ns\tself_ns\tfrom\tto\tbytes\tfailed")
	kinds := [...]string{"client", "call", "handle", "replay"}
	for i, s := range t.spans {
		from, to := s.self, s.peer
		if s.kind == kindHandle {
			from, to = s.peer, s.self
		}
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n",
			s.id, s.parent, kinds[s.kind], s.name, s.start, s.end, t.selfNS[i], from, to, s.bytes, s.failed)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader is the request header carrying the client span id to the
// gate's middleware, so gate-side calls link to the client request.
const spanHeader = "X-Bench-Span"

func parseSpanHeader(r *http.Request) uint64 {
	v, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent header = no parent
	return v
}
