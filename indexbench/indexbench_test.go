package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func tinySizes() sizes {
	return sizes{
		Peers:             8,
		MinReplicas:       2,
		MaxKeys:           100,
		Docs:              60,
		Vocabulary:        500,
		CacheSize:         64,
		MaintainEvery:     100 * time.Millisecond,
		SnapshotThreshold: 16,
		MaxRounds:         100,
		Clients:           2,
		Setups:            1,
		Warmup:            100 * time.Millisecond,
		ReplayOps:         500,
	}
}

// TestTinyRuns runs every workload at a tiny size, traced (which includes
// an untraced window), and requires no failed operation and every
// per-layer metric BENCHMARK.json lists.
func TestTinyRuns(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := runOptions{sizes: tinySizes(), wl: wl, seed: 7, window: 500 * time.Millisecond, traced: traced, workDir: t.TempDir()}
				var report strings.Builder
				out, err := run(context.Background(), o, &report)
				if err != nil {
					t.Fatalf("traced=%t: %v", traced, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d\n%s", traced, out.Correct, out.Attempted, out.Failed, report.String())
				}
				if !strings.Contains(report.String(), "metric failed_frac                                      0.0000") {
					t.Errorf("traced=%t: failed_frac not 0:\n%s", traced, report.String())
				}
				want := []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "items_per_s", "heap_mb"}
				if traced {
					want = []string{"gate.self_ms_p50", "network.wire_ms_p50", "overlay.handler_self_ms_p50", "replication.lookup_us.disk", "runtime.alloc_kb_per_op", "trace.overhead_frac"}
				}
				for _, m := range want {
					if _, ok := out.Metrics[m]; !ok {
						t.Errorf("traced=%t: metric %s missing from %v", traced, m, out.Metrics)
					}
				}
				for m := range out.Metrics {
					if !listed[m] {
						t.Errorf("traced=%t: metric %s is not declared", traced, m)
					}
				}
			}
		})
	}
}

func lookupAnswer(c *corpus, term string) answer {
	ks := c.key(term).String()
	a := answer{Key: ks}
	for doc := range c.byKey[ks] {
		a.Items = append(a.Items, itemJSON{Key: ks, Value: doc})
	}
	return a
}

// TestOracleRejectsCorruptAnswers corrupts correct answers in every way the
// oracle must notice.
func TestOracleRejectsCorruptAnswers(t *testing.T) {
	c := newCorpus(60, 500, 3)
	or := newOracle(c)
	term := c.zipfTerm(newGenerator("lookup-zipf", c, nil, 1, 0).rng)
	good := lookupAnswer(c, term)
	if err := or.checkLookup(term, good, false); err != nil {
		t.Fatalf("correct lookup rejected: %v", err)
	}
	corrupt := map[string]func(a answer) answer{
		"dropped posting": func(a answer) answer { a.Items = a.Items[1:]; return a },
		"foreign posting": func(a answer) answer { a.Items = append(a.Items, itemJSON{Key: a.Key, Value: "doc-999999"}); return a },
		"duplicate":       func(a answer) answer { a.Items = append(a.Items, a.Items[0]); return a },
		"foreign key": func(a answer) answer {
			a.Items = append([]itemJSON(nil), a.Items...)
			a.Items[0].Key = strings.Repeat("1", len(a.Items[0].Key))
			return a
		},
	}
	for name, f := range corrupt {
		if err := or.checkLookup(term, f(good), false); err == nil {
			t.Errorf("lookup with %s accepted", name)
		}
	}

	// On the write workload, postings this run inserted may be extra, and
	// nothing else.
	extra := good
	extra.Items = append(append([]itemJSON(nil), good.Items...), itemJSON{Key: good.Key, Value: "run-c0-1"})
	if err := or.checkLookup(term, extra, true); err == nil {
		t.Error("posting never inserted accepted")
	}
	or.noteInsert("run-c0-1")
	if err := or.checkLookup(term, extra, true); err != nil {
		t.Errorf("run-inserted posting rejected: %v", err)
	}
	if err := or.checkLookup(term, extra, false); err == nil {
		t.Error("extra posting accepted on a read-only workload")
	}

	lo, hi := prefixRange(c.prefixes[0])
	var ra answer
	for _, it := range c.sorted {
		if k := it.Key.String(); it.Key.Compare(c.key(lo)) >= 0 && it.Key.Compare(c.key(hi)) < 0 {
			ra.Items = append(ra.Items, itemJSON{Key: k, Value: it.Value})
		}
	}
	if len(ra.Items) == 0 {
		t.Fatal("empty prefix range")
	}
	if err := or.checkRange(lo, hi, ra); err != nil {
		t.Fatalf("correct range rejected: %v", err)
	}
	short := ra
	short.Items = ra.Items[1:]
	incomplete := ra
	incomplete.Incomplete = true
	swapped := ra
	swapped.Items = append([]itemJSON(nil), ra.Items...)
	swapped.Items[0].Value = "doc-999999"
	for name, a := range map[string]answer{"short": short, "incomplete": incomplete, "swapped": swapped} {
		if err := or.checkRange(lo, hi, a); err == nil {
			t.Errorf("%s range accepted", name)
		}
	}

	if err := quiesced(term, good, []string{"run-c0-1"}, nil); err == nil {
		t.Error("lost acked insert accepted")
	}
	if err := quiesced(term, extra, nil, []string{"run-c0-1"}); err == nil {
		t.Error("resurrected acked delete accepted")
	}
}

// TestCorruptGateAnswerCountsAsFailure serves a corrupted answer where the
// gate would answer and checks the client counts it as a wrong answer.
func TestCorruptGateAnswerCountsAsFailure(t *testing.T) {
	c := newCorpus(60, 500, 3)
	term := c.terms[0]
	a := lookupAnswer(c, term)
	a.Items = a.Items[:len(a.Items)-1]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = json.NewEncoder(w).Encode(a)
	}))
	defer srv.Close()
	cl := &client{hc: srv.Client(), base: srv.URL, or: newOracle(c), wl: workloads[0]}
	r, err := cl.do(context.Background(), op{kind: opLookup, term: term}, false)
	if err == nil || r.ok || !r.wrong {
		t.Fatalf("corrupted answer not flagged: ok=%t wrong=%t err=%v", r.ok, r.wrong, err)
	}
}

// TestSelfTime checks the trace analysis: a handler is linked to the call
// enclosing it, and self time subtracts the union of child intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100, kind: kindClient, name: "client.lookup"},
		{id: 2, parent: 1, start: 10, end: 90, kind: kindCall, name: "Query", self: -1, peer: 0, gate: true},
		{id: 3, start: 20, end: 80, kind: kindHandle, name: "Query", self: 0, peer: -1},
		{id: 4, parent: 3, start: 30, end: 50, kind: kindCall, name: "Query", self: 0, peer: 1},
		{id: 5, parent: 3, start: 40, end: 60, kind: kindCall, name: "Query", self: 0, peer: 2},
	}
	tr := analyse(spans)
	want := map[uint64]int64{1: 20, 2: 20, 3: 30, 4: 20, 5: 20}
	for i, s := range tr.spans {
		if tr.selfNS[i] != want[s.id] {
			t.Errorf("span %d: self %d, want %d", s.id, tr.selfNS[i], want[s.id])
		}
		if tr.root[i] != 0 {
			t.Errorf("span %d: root %d, want the client span", s.id, tr.root[i])
		}
	}
}

// TestDeclaredMetrics keeps the metrics the result line carries in step
// with the ones BENCHMARK.json declares.
func TestDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		declared[m.Name] = true
		if !listed[m.Name] {
			t.Errorf("BENCHMARK.json declares %s, which the benchmark does not report", m.Name)
		}
	}
	for m := range listed {
		if !declared[m] {
			t.Errorf("the benchmark reports %s, which BENCHMARK.json does not declare", m)
		}
	}
}
