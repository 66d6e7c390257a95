package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pgrid/internal/gate"
	"pgrid/internal/network"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/unstructured"
)

// sizes is the fixed deployment every run of a workload sets up:
// defaultSizes in benchmark runs, smaller ones in tests.
type sizes struct {
	Peers       int // overlay peers, one loopback TCP endpoint each
	MinReplicas int // n_min
	MaxKeys     int // d_max
	Docs        int // corpus documents
	Vocabulary  int // distinct terms the corpus draws from
	// CacheSize is every peer's answer-cache capacity (entries).
	CacheSize int
	// MaintainEvery is the fixed background maintenance interval.
	MaintainEvery time.Duration
	// SnapshotThreshold is the WAL length that triggers a checkpoint on
	// durable stores; small enough that several fall inside a run.
	SnapshotThreshold int
	// MaxRounds bounds the construction rounds.
	MaxRounds int
	// Clients is the number of closed-loop client goroutines and
	// keep-alive connections.
	Clients int
	// Setups is how many times a run sets the deployment up; setup_s is
	// their median and the last one serves the traffic.
	Setups int
	// Warmup runs traffic before the measured window so caches fill.
	Warmup time.Duration
	// ReplayOps is the length of the operation stream the standalone
	// store replay draws before keeping the ops of its partition.
	ReplayOps int
}

// defaultSizes is the benchmark's deployment.
func defaultSizes(clients int) sizes {
	return sizes{
		Peers:             32,
		MinReplicas:       2,
		MaxKeys:           400,
		Docs:              1000,
		Vocabulary:        10000,
		CacheSize:         1024,
		MaintainEvery:     500 * time.Millisecond,
		SnapshotThreshold: 64,
		MaxRounds:         200,
		Clients:           clients,
		Setups:            2,
		Warmup:            time.Second,
		ReplayOps:         20000,
	}
}

// buildFacts records what constructing the overlay cost.
type buildFacts struct {
	Rounds              int
	InteractionsPerPeer float64
	KeysMovedPerPeer    float64
	ReplicateS          float64
	ConstructS          float64
	Partitions          int
	UnderReplicated     int // partitions held by fewer than n_min peers
	SyncRounds          int // anti-entropy rounds until replicas agreed
	SyncS               float64
}

// deployment is one running P-Grid behind the HTTP gate, all in this
// process on loopback TCP.
type deployment struct {
	peers   []*overlay.Peer
	eps     []network.Transport
	gateEP  network.Transport
	stops   []func()
	httpSrv *http.Server
	srvDone chan struct{}
	baseURL string
	dataDir string
	build   buildFacts
}

// listen opens a loopback TCP endpoint, wrapped for tracing when rec is set.
func listen(rec *recorder, gateSide bool) (network.Transport, error) {
	ep, err := network.ListenTCPOptions("127.0.0.1:0", network.TCPOptions{})
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return ep, nil
	}
	return rec.wrap(ep, gateSide), nil
}

// setup listens, distributes the corpus postings over the peers, runs the
// paper's replication phase and construction rounds (as pgrid.Cluster.Build
// does), checkpoints durable stores, starts maintenance and the gate, and
// returns once the gate answers /readyz.
func setup(ctx context.Context, sz sizes, wl workloadSpec, c *corpus, seed int64, rec *recorder, workDir string) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if wl.durable {
		if d.dataDir, err = os.MkdirTemp(workDir, "data-"); err != nil {
			return d, err
		}
	}
	addrs := make([]network.Addr, sz.Peers)
	for i := 0; i < sz.Peers; i++ {
		ep, err := listen(rec, false)
		if err != nil {
			return d, err
		}
		d.eps = append(d.eps, ep)
		addrs[i] = ep.Addr()
		cfg := overlay.Config{
			MaxKeys:           sz.MaxKeys,
			MinReplicas:       sz.MinReplicas,
			MaxRefs:           3,
			DoneAfterIdle:     2,
			QueryCacheSize:    sz.CacheSize,
			WriteQuorum:       wl.quorum,
			StorageEngine:     wl.engine,
			SnapshotThreshold: sz.SnapshotThreshold,
			Seed:              seed + int64(i)*31337,
		}
		if wl.durable {
			cfg.DataDir = filepath.Join(d.dataDir, fmt.Sprintf("peer-%03d", i))
		}
		p, err := overlay.NewPersistent(cfg, ep)
		if err != nil {
			return d, fmt.Errorf("open peer %d: %w", i, err)
		}
		d.peers = append(d.peers, p)
	}
	if rec != nil {
		rec.setAddrs(addrs)
	}

	// Postings are born distributed: each lands on a uniformly random peer.
	rng := rand.New(rand.NewSource(seed))
	pending := make([][]replication.Item, sz.Peers)
	for _, it := range c.items {
		o := rng.Intn(sz.Peers)
		pending[o] = append(pending[o], it)
	}
	for i, p := range d.peers {
		p.AddItems(pending[i])
	}
	graph := unstructured.NewGraph(addrs, unstructured.DefaultDegree, seed+1)

	t := time.Now()
	for i, p := range d.peers {
		if len(pending[i]) == 0 {
			continue
		}
		targets := make([]network.Addr, 0, sz.MinReplicas)
		for a := 0; len(targets) < sz.MinReplicas && a < 10*sz.MinReplicas; a++ {
			if cand, err := graph.RandomWalk(p.Addr(), 0, nil); err == nil && cand != p.Addr() {
				targets = append(targets, cand)
			}
		}
		if err := p.ReplicateItems(ctx, pending[i], targets); err != nil {
			return d, fmt.Errorf("replication phase: %w", err)
		}
	}
	d.build.ReplicateS = time.Since(t).Seconds()

	t = time.Now()
	rounds := 0
	for ; rounds < sz.MaxRounds && ctx.Err() == nil; rounds++ {
		active := 0
		for _, idx := range rng.Perm(len(d.peers)) {
			p := d.peers[idx]
			if p.Done() {
				continue
			}
			partner, err := graph.RandomWalk(p.Addr(), 0, nil)
			if err != nil || partner == p.Addr() {
				continue
			}
			active++
			_, _ = p.Interact(ctx, partner)
		}
		if active == 0 {
			break
		}
	}
	d.build.ConstructS = time.Since(t).Seconds()
	d.build.Rounds = rounds
	paths := map[string]int{}
	for _, p := range d.peers {
		m := p.MetricsSnapshot()
		d.build.InteractionsPerPeer += m.Interactions / float64(len(d.peers))
		d.build.KeysMovedPerPeer += m.KeysMoved / float64(len(d.peers))
		paths[string(p.Path())]++
	}
	d.build.Partitions = len(paths)
	for _, n := range paths {
		if n < sz.MinReplicas {
			d.build.UnderReplicated++
		}
	}

	// Construction leaves the replicas of a partition with different
	// subsets of its postings; anti-entropy rounds reconcile them before
	// the gate opens, so every answer can be checked exactly.
	t = time.Now()
	for d.build.SyncRounds < sz.MaxRounds && ctx.Err() == nil && !d.converged() {
		for _, p := range d.peers {
			p.MaintainTick(ctx, overlay.MaintenanceOptions{})
		}
		d.build.SyncRounds++
	}
	d.build.SyncS = time.Since(t).Seconds()
	if wl.durable {
		// Reads start from segments, not from the memtable.
		for i, p := range d.peers {
			if err := p.Store().Checkpoint(); err != nil {
				return d, fmt.Errorf("checkpoint peer %d: %w", i, err)
			}
		}
	}
	for _, p := range d.peers {
		d.stops = append(d.stops, p.StartMaintenance(overlay.MaintenanceOptions{Interval: sz.MaintainEvery}))
	}

	if d.gateEP, err = listen(rec, true); err != nil {
		return d, err
	}
	backend := &gate.RemoteBackend{Transport: d.gateEP, Peers: addrs, WriteQuorum: wl.quorum}
	var handler http.Handler = gate.New(gate.Config{Backend: backend}).Handler()
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.baseURL = "http://" + ln.Addr().String()
	d.httpSrv = &http.Server{Handler: handler}
	d.srvDone = make(chan struct{})
	go func() {
		defer close(d.srvDone)
		_ = d.httpSrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, waitReady(ctx, d.baseURL)
}

// waitReady polls /readyz until the gate reaches an entry peer.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return errors.New("gate not ready after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the gate, maintenance, peers and endpoints and removes the
// data directory. Safe on a partly built deployment.
func (d *deployment) close() {
	if d.httpSrv != nil {
		_ = d.httpSrv.Close()
		<-d.srvDone
	}
	for _, stop := range d.stops {
		stop()
	}
	if d.gateEP != nil {
		_ = d.gateEP.Close()
	}
	for _, ep := range d.eps {
		_ = ep.Close()
	}
	for _, p := range d.peers {
		_ = p.Close()
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// converged reports whether all peers of each partition hold the same
// content.
func (d *deployment) converged() bool {
	digests := map[string]uint64{}
	for _, p := range d.peers {
		path := p.Path()
		h, _ := p.Store().Digest(path)
		if prev, ok := digests[string(path)]; ok && prev != h {
			return false
		}
		digests[string(path)] = h
	}
	return true
}

// watchCheckpoints counts, from outside, the checkpoints durable stores
// take until the returned stop is called: a store's WAL only gets shorter
// when a checkpoint truncates it.
func (d *deployment) watchCheckpoints() (stop func() int) {
	done := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		last := make([]int, len(d.peers))
		n := 0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for i, p := range d.peers {
				r := p.Store().WALRecords()
				if r < last[i] {
					n++
				}
				last[i] = r
			}
			select {
			case <-done:
				result <- n
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(done)
		return <-result
	}
}

// busiestPartition returns the live items of the partition that serves the
// most of the given keys (bit strings), for the standalone store replay.
func (d *deployment) busiestPartition(keys []string) (path string, items []replication.Item) {
	byPath := map[string]*overlay.Peer{}
	for _, p := range d.peers {
		byPath[string(p.Path())] = p
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	hits := map[string]int{}
	for _, k := range keys {
		for _, p := range paths {
			if len(k) >= len(p) && k[:len(p)] == p {
				hits[p]++
				break
			}
		}
	}
	best := paths[0]
	for _, p := range paths {
		if hits[p] > hits[best] {
			best = p
		}
	}
	return best, byPath[best].Store().Items()
}
