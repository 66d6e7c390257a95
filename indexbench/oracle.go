package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
	"pgrid/internal/workload"
)

// corpus is the generated inverted file (term -> doc id postings) and the
// oracle's view of it: the expected posting set of every key.
type corpus struct {
	tc       *workload.TextCorpus
	zipf     *workload.Zipf
	items    []replication.Item         // every posting, as indexed
	terms    []string                   // distinct indexed terms
	indexed  map[string]bool            // term -> indexed
	byKey    map[string]map[string]bool // key bits -> doc ids
	sorted   []replication.Item         // postings in key order, for ranges
	prefixes []string                   // distinct two-letter term prefixes
}

func newCorpus(docs, vocabulary int, seed int64) *corpus {
	cfg := workload.DefaultCorpusConfig()
	cfg.VocabularySize = vocabulary
	cfg.Seed = seed
	tc := workload.NewTextCorpus(cfg)
	c := &corpus{
		tc:      tc,
		zipf:    workload.NewZipf(cfg.VocabularySize, cfg.ZipfExponent),
		indexed: map[string]bool{},
		byKey:   map[string]map[string]bool{},
	}
	pfx := map[string]bool{}
	for _, p := range tc.Postings(tc.Documents(docs, rand.New(rand.NewSource(seed)))) {
		c.items = append(c.items, replication.Item{Key: p.Key, Value: p.Doc})
		ks := p.Key.String()
		if c.byKey[ks] == nil {
			c.byKey[ks] = map[string]bool{}
		}
		c.byKey[ks][p.Doc] = true
		if !c.indexed[p.Term] {
			c.indexed[p.Term] = true
			c.terms = append(c.terms, p.Term)
			if len(p.Term) >= 2 {
				pfx[p.Term[:2]] = true
			}
		}
	}
	sort.Strings(c.terms)
	for p := range pfx {
		c.prefixes = append(c.prefixes, p)
	}
	sort.Strings(c.prefixes)
	c.sorted = append([]replication.Item(nil), c.items...)
	sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].Key.Compare(c.sorted[j].Key) < 0 })
	return c
}

// zipfTerm draws an indexed term by the corpus's own Zipf law.
func (c *corpus) zipfTerm(r *rand.Rand) string {
	for {
		if t := c.tc.Term(c.zipf.Rank(r)); c.indexed[t] {
			return t
		}
	}
}

func (c *corpus) key(term string) keyspace.Key { return c.tc.TermKey(term) }

// prefixRange is the key range of all terms starting with a two-letter
// prefix: [prefix, prefix with its last letter incremented).
func prefixRange(prefix string) (lo, hi string) {
	return prefix, prefix[:1] + string(prefix[1]+1)
}

// itemJSON is one posting of a gate answer.
type itemJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// answer is the part of a gate search or range body the oracle checks.
type answer struct {
	Key        string     `json:"key"`
	Items      []itemJSON `json:"items"`
	Hops       int        `json:"hops"`
	Partitions int        `json:"partitions"`
	Incomplete bool       `json:"incomplete"`
}

// oracle checks gate answers against the generated corpus plus what this
// run wrote.
type oracle struct {
	c *corpus

	mu       sync.Mutex
	inserted map[string]bool // doc ids this run tried to insert
}

func newOracle(c *corpus) *oracle { return &oracle{c: c, inserted: map[string]bool{}} }

// noteInsert records a posting this run sent, before it is sent: a write
// that fails may still have been applied, so it may legitimately show up.
func (o *oracle) noteInsert(doc string) {
	o.mu.Lock()
	o.inserted[doc] = true
	o.mu.Unlock()
}

func (o *oracle) runInserted(doc string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inserted[doc]
}

// checkLookup verifies an exact-match answer for term. With writes false
// the posting set must equal the corpus's exactly; with writes true it must
// contain every initial posting and may add only postings this run
// inserted.
func (o *oracle) checkLookup(term string, a answer, writes bool) error {
	ks := o.c.key(term).String()
	want := o.c.byKey[ks]
	got := make(map[string]bool, len(a.Items))
	for _, it := range a.Items {
		if it.Key != ks {
			return fmt.Errorf("lookup %q: item under foreign key %s", term, it.Key)
		}
		if got[it.Value] {
			return fmt.Errorf("lookup %q: duplicate posting %s", term, it.Value)
		}
		got[it.Value] = true
		if !want[it.Value] && !(writes && o.runInserted(it.Value)) {
			return fmt.Errorf("lookup %q: unexpected posting %s", term, it.Value)
		}
	}
	for doc := range want {
		if !got[doc] {
			return fmt.Errorf("lookup %q: missing posting %s (%d of %d returned)", term, doc, len(got), len(want))
		}
	}
	return nil
}

// checkRange verifies a read-only range answer: exactly the postings whose
// key lies in [lo, hi), and complete.
func (o *oracle) checkRange(lo, hi string, a answer) error {
	if a.Incomplete {
		return fmt.Errorf("range [%s,%s): incomplete", lo, hi)
	}
	r := keyspace.NewRange(o.c.key(lo), o.c.key(hi))
	i := sort.Search(len(o.c.sorted), func(i int) bool { return o.c.sorted[i].Key.Compare(r.Lo) >= 0 })
	want := map[string]bool{}
	for ; i < len(o.c.sorted) && r.ContainsKey(o.c.sorted[i].Key); i++ {
		want[o.c.sorted[i].Key.String()+"\x00"+o.c.sorted[i].Value] = true
	}
	if len(a.Items) != len(want) {
		return fmt.Errorf("range [%s,%s): %d postings, want %d", lo, hi, len(a.Items), len(want))
	}
	for _, it := range a.Items {
		if !want[it.Key+"\x00"+it.Value] {
			return fmt.Errorf("range [%s,%s): unexpected posting %s/%s", lo, hi, it.Key, it.Value)
		}
	}
	return nil
}

// posting is one (term, doc) pair the run wrote.
type posting struct{ term, doc string }

// quiesced verifies, after traffic stopped and maintenance ran, one term's
// answer against the run's acknowledged writes: every acked insert is
// visible and no acked delete has come back.
func quiesced(term string, a answer, live, deleted []string) error {
	got := map[string]bool{}
	for _, it := range a.Items {
		got[it.Value] = true
	}
	var bad []string
	for _, d := range live {
		if !got[d] {
			bad = append(bad, "lost "+d)
		}
	}
	for _, d := range deleted {
		if got[d] {
			bad = append(bad, "resurrected "+d)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("term %q after quiesce: %s", term, strings.Join(bad, ", "))
	}
	return nil
}
