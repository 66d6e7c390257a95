// Command indexbench is the repository's end-to-end benchmark. In one
// process it constructs a P-Grid of overlay peers on loopback TCP endpoints
// (the paper's replicate-then-interact construction), indexes a generated
// Zipf inverted file (term -> doc id postings), fronts the overlay with the
// HTTP gate over a RemoteBackend (the pgridgate path), and drives the gate
// closed-loop with one client goroutine and keep-alive connection per CPU.
// Every answer is checked against the generated corpus.
//
//	go run . --workload lookup-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line is a JSON object with the end-to-end
// metrics. With --trace 1 the same deployment first runs an untraced window
// and then a traced one: spans are recorded around every client request,
// transport call and handler, written to the work directory, summarised as
// a per-layer self-time table, and the per-layer metrics (plus a standalone
// store replay) make up the JSON line. Traffic crosses the host's loopback
// interface, not a real link.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"pgrid/internal/keyspace"
)

func main() {
	wlName := flag.String("workload", "", "workload: lookup-uniform, lookup-zipf, range-prefix or index-churn-disk")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traceMode := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "indexbench"), "directory for data directories and span dumps")
	flag.Parse()

	wl, err := workloadByName(*wlName)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "indexbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runOptions{
		sizes:   defaultSizes(runtime.NumCPU()),
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *traceMode == 1,
		workDir: *workDir,
	}
	out, err := run(ctx, opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// deploymentSeed fixes the corpus and the constructed overlay across runs:
// with a corpus and construction drawn per run, the partition count and
// path depths (and with them hops and throughput) moved more between seeds
// than the changes the benchmark is meant to detect. --seed draws the
// request streams.
const deploymentSeed int64 = 20050831

// runOptions is one invocation of the benchmark.
type runOptions struct {
	sizes   sizes
	wl      workloadSpec
	seed    int64
	window  time.Duration
	traced  bool
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// facts are the machine and run facts every report starts with.
func facts(o runOptions, c *corpus, b buildFacts) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if _, v, ok := strings.Cut(l, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := "unknown (built outside a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	sz := o.sizes
	mode := "untraced"
	if o.traced {
		mode = "traced (an untraced window, then a traced one)"
	}
	return []string{
		fmt.Sprintf("indexbench workload=%s seed=%d (request streams; deployment seed %d) window=%s mode=%s", o.wl.name, o.seed, deploymentSeed, o.window, mode),
		fmt.Sprintf("machine cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit),
		"transport: every peer, the gate and the clients talk over the host's loopback interface (127.0.0.1 TCP), not a real link",
		fmt.Sprintf("deployment peers=%d n_min=%d d_max=%d docs=%d postings=%d terms=%d partitions=%d engine=%s durable=%t write_quorum=%d answer_cache=%d maintenance=%s snapshot_threshold=%d hot_widening=off",
			sz.Peers, sz.MinReplicas, sz.MaxKeys, sz.Docs, len(c.items), len(c.terms), b.Partitions, o.wl.engine, o.wl.durable, o.wl.quorum, sz.CacheSize, sz.MaintainEvery, sz.SnapshotThreshold),
		fmt.Sprintf("construction partitions_under_n_min=%d rounds=%d interactions/peer=%.1f keys_moved/peer=%.0f replicate=%.2fs construct=%.2fs anti-entropy rounds until replicas agree=%d (%.2fs)",
			b.UnderReplicated, b.Rounds, b.InteractionsPerPeer, b.KeysMovedPerPeer, b.ReplicateS, b.ConstructS, b.SyncRounds, b.SyncS),
		fmt.Sprintf("load closed-loop clients=%d keep-alive connections=%d warmup=%s setups=%d", sz.Clients, sz.Clients, sz.Warmup, sz.Setups),
	}
}

// run sets the deployment up, drives the workload, checks every answer and
// returns the result line; the human-readable report goes to w.
func run(ctx context.Context, o runOptions, w io.Writer) (output, error) {
	sz := o.sizes
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return output{}, err
	}
	c := newCorpus(sz.Docs, sz.Vocabulary, deploymentSeed)
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}

	var setups []float64
	var d *deployment
	for i := 0; i < sz.Setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = setup(ctx, sz, o.wl, c, deploymentSeed, rec, o.workDir); err != nil {
			return output{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	header := facts(o, c, d.build)
	for _, h := range header {
		fmt.Fprintln(w, "#", h)
	}

	or := newOracle(c)
	hc := newHTTPClient(sz.Clients)
	defer hc.CloseIdleConnections()
	clients := make([]*client, sz.Clients)
	gens := make([]*generator, sz.Clients)
	d0 := newDeck(c, o.seed)
	for i := range clients {
		clients[i] = &client{hc: hc, base: d.baseURL, rec: rec, or: or, wl: o.wl}
		gens[i] = newGenerator(o.wl.name, c, d0, o.seed, i)
	}

	t0 := time.Now()
	phases := []*phase{{from: t0, to: t0.Add(sz.Warmup)}}
	phases = append(phases, &phase{from: phases[0].to, to: phases[0].to.Add(o.window)})
	if o.traced {
		phases = append(phases, &phase{from: phases[1].to, to: phases[1].to.Add(o.window)})
	}
	// Samples at each phase boundary, the last one when traffic stopped.
	var rt [4]runtimeSample
	var maint [4]maintSample
	var stopWatch func() int
	ckpts := -1
	onPhase := func(p int) {
		if o.wl.durable && p == 1 {
			stopWatch = d.watchCheckpoints()
		}
		if stopWatch != nil && ckpts < 0 && (p == 2 || p == len(phases)) {
			ckpts = stopWatch()
		}
		if p < len(rt) {
			rt[p] = readRuntime()
			maint[p] = d.maintSample()
		}
		if rec != nil {
			rec.on.Store(p == 2)
		}
	}
	errs := drive(ctx, clients, gens, phases, onPhase)
	if ctx.Err() != nil {
		return output{}, ctx.Err()
	}

	out := output{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		for _, r := range ph.results {
			out.Attempted++
			if !r.ok {
				out.Failed++
			}
			if r.wrong {
				out.Correct = false
			}
		}
	}
	if o.wl.writes {
		att, failed, qerrs := quiesce(ctx, clients[0], gens, sz.MaintainEvery)
		out.Attempted += att
		out.Failed += failed
		if failed > 0 {
			out.Correct = false
		}
		errs = append(errs, qerrs...)
	}
	for _, e := range errs {
		fmt.Fprintln(w, "# error:", e)
	}

	measured := phases[1]
	e2e := endToEnd(measured)
	e2e.setup(setups, heapMB)
	if ckpts >= 0 {
		e2e.add("cluster_checkpoints", float64(ckpts), "count", 1)
	}
	e2e.print(w)
	if !o.traced {
		out.Metrics = e2e.json()
	} else {
		gen := newGenerator(o.wl.name, c, newDeck(c, o.seed), o.seed, 0)
		stream := make([]op, sz.ReplayOps)
		keys := make([]string, len(stream))
		for i := range stream {
			stream[i] = gen.next()
			gen.ack(stream[i])
			keys[i] = c.key(stream[i].term).String()
		}
		path, items := d.busiestPartition(keys)
		rr, err := replay(o.workDir, keyspace.Path(path), items, stream, c, sz.SnapshotThreshold, rec)
		if err != nil {
			return output{}, fmt.Errorf("replay: %w", err)
		}

		tr := analyse(rec.take())
		pl := perLayer(tr, phases[2].results)
		pl.construction(d.build)
		pl.maintenance(maint[2], maint[3], o.window)
		pl.runtime(rt[1], rt[2], len(measured.results))
		pl.replication(rr)
		untraced := e2e.opsPerS()
		traced := endToEnd(phases[2]).opsPerS()
		pl.add("trace.overhead_frac", 1-traced/untraced, "ratio", len(phases[2].results))
		fmt.Fprintf(w, "# tracing overhead: traced %.1f ops/s against untraced %.1f ops/s in the same deployment\n", traced, untraced)
		tr.writeTable(w)
		dump := filepath.Join(o.workDir, o.wl.name+".spans.tsv")
		if err := tr.dump(dump, header); err != nil {
			return output{}, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(w, "# %d spans written to %s\n", len(tr.spans), dump)
		pl.print(w)
		out.Metrics = pl.json()
	}
	fmt.Fprintf(w, "# oracle: correct=%t attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
	return out, nil
}
