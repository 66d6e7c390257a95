package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// result is the client-side record of one operation.
type result struct {
	kind      opKind
	start     time.Time
	latency   time.Duration
	ok        bool // 2xx and accepted by the oracle
	wrong     bool // a 2xx answer the oracle rejected
	shed      bool // 429
	items     int
	respBytes int
	hops      int
	parts     int
	cacheHit  bool
}

// client drives the gate over its own keep-alive connection pool slot.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil when untraced
	or   *oracle
	wl   workloadSpec
	buf  bytes.Buffer
	last answer // the last decoded answer
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// do sends one operation, checks its answer and returns its record. The
// error is the oracle's or the transport's verdict, for diagnostics.
func (c *client) do(ctx context.Context, o op, consistent bool) (result, error) {
	var method, u string
	var body io.Reader
	switch o.kind {
	case opLookup:
		method, u = http.MethodGet, c.base+"/v1/search/"+url.PathEscape(o.term)
		if consistent {
			u += "?consistent=1"
		}
	case opRange:
		method, u = http.MethodGet, c.base+"/v1/range?lo="+url.QueryEscape(o.term)+"&hi="+url.QueryEscape(o.hi)
	case opInsert:
		c.or.noteInsert(o.doc)
		b, _ := json.Marshal(map[string]string{"value": o.doc}) // a string map always marshals
		method, u, body = http.MethodPut, c.base+"/v1/items/"+url.PathEscape(o.term), bytes.NewReader(b)
	case opDelete:
		method, u = http.MethodDelete, c.base+"/v1/items/"+url.PathEscape(o.term)+"?value="+url.QueryEscape(o.doc)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return result{kind: o.kind}, err
	}
	var id uint64
	var spanStart int64
	if c.rec != nil && c.rec.on.Load() {
		id = c.rec.ids.Add(1)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		spanStart = c.rec.now()
	}
	r := result{kind: o.kind, start: time.Now()}
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	r.latency = time.Since(r.start)
	if id != 0 {
		c.rec.add(span{id: id, start: spanStart, end: c.rec.now(), name: "client." + kindName[o.kind], kind: kindClient, failed: err != nil || resp.StatusCode/100 != 2})
	}
	if err != nil {
		return r, err
	}
	r.respBytes = c.buf.Len()
	if resp.StatusCode/100 != 2 {
		r.shed = resp.StatusCode == http.StatusTooManyRequests
		return r, fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	var a answer
	if err := json.Unmarshal(c.buf.Bytes(), &a); err != nil {
		r.wrong = true
		return r, fmt.Errorf("%s %s: bad body: %w", method, u, err)
	}
	c.last = a
	r.hops = a.Hops
	if o.kind == opInsert || o.kind == opDelete {
		r.ok = true
		return r, nil
	}
	r.items, r.parts = len(a.Items), a.Partitions
	r.cacheHit = resp.Header.Get("X-Pgrid-Cache") == "hit"
	if o.kind == opRange {
		err = c.or.checkRange(o.term, o.hi, a)
	} else {
		err = c.or.checkLookup(o.term, a, c.wl.writes)
	}
	r.ok, r.wrong = err == nil, err != nil
	return r, err
}

var kindName = [...]string{opLookup: "lookup", opRange: "range", opInsert: "insert", opDelete: "delete"}

// phase is one period of closed-loop traffic; results of operations that
// started inside it are kept.
type phase struct {
	from, to time.Time
	results  []result
}

// drive runs the closed loop: every client sends its next operation as
// soon as the previous one answered, until the last phase ends. It returns
// the first few errors for diagnostics.
func drive(ctx context.Context, clients []*client, gens []*generator, phases []*phase, onPhase func(int)) []string {
	var mu sync.Mutex
	var errs []string
	var wg sync.WaitGroup
	end := phases[len(phases)-1].to
	perClient := make([][][]result, len(clients))
	for i := range clients {
		perClient[i] = make([][]result, len(phases))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, g := clients[i], gens[i]
			for {
				now := time.Now()
				if !now.Before(end) || ctx.Err() != nil {
					return
				}
				o := g.next()
				r, err := cl.do(ctx, o, false)
				if r.ok {
					g.ack(o)
				}
				if err != nil {
					mu.Lock()
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
					mu.Unlock()
				}
				for p, ph := range phases {
					if !r.start.Before(ph.from) && r.start.Before(ph.to) {
						perClient[i][p] = append(perClient[i][p], r)
					}
				}
			}
		}(i)
	}
	// Switch tracing on and off at phase boundaries.
	for p, ph := range phases {
		if d := time.Until(ph.from); d > 0 {
			time.Sleep(d)
		}
		if onPhase != nil {
			onPhase(p)
		}
	}
	wg.Wait()
	if onPhase != nil {
		onPhase(len(phases))
	}
	for _, pc := range perClient {
		for p, rs := range pc {
			phases[p].results = append(phases[p].results, rs...)
		}
	}
	return errs
}
