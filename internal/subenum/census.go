// Package subenum implements Section 4: the census of subdomain labels
// leaked through CT-logged certificates (Table 2), the per-suffix label
// statistics of Section 4.2, and the full Section 4.3 enumeration
// methodology — strategic FQDN construction from frequent labels,
// massdns-style concurrent verification with pseudorandom control names
// against wildcard zones, CNAME chasing, routing-table filtering, and the
// Sonar comparison.
//
// The census, the candidate construction and the verification all fan
// out on ecosystem.ForEach (RunCensus's parallelism argument,
// ConstructConfig.Parallelism, VerifyConfig.Parallelism); every
// aggregate they produce is additive or merged in input order, so
// parallel output is identical to the sequential path at any worker
// count.
package subenum

import (
	"sort"

	"ctrise/internal/dnsname"
	"ctrise/internal/ecosystem"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
)

// Census is the outcome of parsing a CT name corpus.
type Census struct {
	// Labels counts each subdomain label across all suffixes (Table 2).
	Labels *stats.Counter
	// LabelsBySuffix counts labels per public suffix (Section 4.2's
	// "most common subdomain label for each public suffix").
	LabelsBySuffix map[string]*stats.Counter
	// DomainsBySuffix groups the corpus's registrable domains by suffix,
	// sorted per suffix for deterministic output.
	DomainsBySuffix map[string][]string
	// ValidFQDNs is the number of names that survived validation.
	ValidFQDNs uint64
	// Rejected counts names eliminated by FQDN validation (the paper
	// filters invalid names with a validators library).
	Rejected uint64
}

// censusPartial is one worker's private aggregate over a shard of names.
type censusPartial struct {
	labels         map[string]uint64
	labelsBySuffix map[string]map[string]uint64
	// domains maps registrable domain → suffix; the merge step dedups
	// across workers (two shards may both see a domain).
	domains    map[string]string
	validFQDNs uint64
	rejected   uint64
}

func newCensusPartial() *censusPartial {
	return &censusPartial{
		labels:         make(map[string]uint64),
		labelsBySuffix: make(map[string]map[string]uint64),
		domains:        make(map[string]string),
	}
}

// observe parses one raw certificate name into the aggregate.
func (p *censusPartial) observe(raw string, list *psl.List) {
	name := dnsname.Normalize(dnsname.TrimWildcard(raw))
	if !dnsname.IsValidFQDN(name) {
		p.rejected++
		return
	}
	sub, regDomain, suffix, err := list.Split(name)
	if err != nil {
		p.rejected++
		return
	}
	p.validFQDNs++
	p.domains[regDomain] = suffix
	for _, label := range sub {
		p.labels[label]++
		sc := p.labelsBySuffix[suffix]
		if sc == nil {
			sc = make(map[string]uint64)
			p.labelsBySuffix[suffix] = sc
		}
		sc[label]++
	}
}

// RunCensus parses a deduplicated CT name corpus: it validates each
// FQDN, splits it at the registrable domain per the PSL, and counts
// subdomain labels. Wildcard prefixes ("*.") are stripped first, as
// certificate names often carry them. Workers consume the set's shards
// in place — the zero-copy handoff from the harvest; each key lives in
// exactly one shard, so shards partition the corpus. parallelism bounds
// the workers (0 means GOMAXPROCS, 1 runs inline); counts are additive
// and per-suffix domain lists are sorted, so the census is identical at
// every setting.
func RunCensus(names *stats.StringSet, list *psl.List, parallelism int) *Census {
	shards := names.NumShards()
	partials := make([]*censusPartial, shards)
	ecosystem.ForEach(shards, parallelism, func(i int) {
		p := newCensusPartial()
		names.ForEachShard(i, func(raw string) { p.observe(raw, list) })
		partials[i] = p
	})
	return mergeCensusPartials(partials)
}

// mergeCensusPartials folds worker aggregates into the final census.
// Counts are additive and per-suffix domain lists are sorted, so the
// result is independent of partial order.
func mergeCensusPartials(partials []*censusPartial) *Census {
	c := &Census{
		Labels:          stats.NewCounter(),
		LabelsBySuffix:  make(map[string]*stats.Counter),
		DomainsBySuffix: make(map[string][]string),
	}
	seenDomains := make(map[string]bool)
	for _, p := range partials {
		c.ValidFQDNs += p.validFQDNs
		c.Rejected += p.rejected
		c.Labels.AddMap(p.labels)
		for suffix, counts := range p.labelsBySuffix {
			sc := c.LabelsBySuffix[suffix]
			if sc == nil {
				sc = stats.NewCounter()
				c.LabelsBySuffix[suffix] = sc
			}
			sc.AddMap(counts)
		}
		for regDomain, suffix := range p.domains {
			if !seenDomains[regDomain] {
				seenDomains[regDomain] = true
				c.DomainsBySuffix[suffix] = append(c.DomainsBySuffix[suffix], regDomain)
			}
		}
	}
	for _, domains := range c.DomainsBySuffix {
		sort.Strings(domains)
	}
	return c
}

// Table2 returns the top-k subdomain labels.
func (c *Census) Table2(k int) []stats.KV { return c.Labels.TopK(k) }

// TopLabelPerSuffix returns each suffix's most common subdomain label
// (Section 4.2), for suffixes with at least minCount label occurrences.
func (c *Census) TopLabelPerSuffix(minCount uint64) map[string]string {
	out := make(map[string]string)
	for suffix, counter := range c.LabelsBySuffix {
		top := counter.TopK(1)
		if len(top) == 1 && top[0].Count >= minCount {
			out[suffix] = top[0].Key
		}
	}
	return out
}

// WordlistCoverage reports how many entries of an external wordlist (such
// as subbrute's 101k or dnsrecon's 1.9k) occur as subdomain labels in the
// census — the paper finds just 16 and 12 respectively, showing the tools
// would not discover real CT-logged names.
func (c *Census) WordlistCoverage(wordlist []string) int {
	n := 0
	for _, w := range wordlist {
		if c.Labels.Get(dnsname.Normalize(w)) > 0 {
			n++
		}
	}
	return n
}
