// Package phish implements Section 5: detecting potential phishing
// domains in CT-logged names. The detector matches names containing a
// target service's brand string or characteristic FQDN label sequences
// (e.g. "login.live" for Microsoft) and excludes the service's legitimate
// domains; the companion generator synthesizes phishing-style domains in
// the shapes Table 3 reports (brand-prefixed free-TLD domains, combosquats
// like "paypal.com-account-security.money", and government-taxation
// imitations).
//
// The detector runs over every name of a CT harvest, nearly all of which
// match nothing, so Check is built to reject a name cheaply. Each
// pattern carries a literal prefilter: the longest literal that every
// match of the pattern must contain, taken from the pattern's parsed
// syntax tree (the longest case-sensitive literal of a top-level
// concatenation, e.g. "paypal" for `paypal`, "microsoft" for
// `login[-.]microsoft`). The regex runs only on names containing that
// literal; a pattern with no such literal always runs. The public-suffix
// lookups that the legitimate-domain exclusion and the Table 3 suffix
// linkage need run only once some pattern has matched.
package phish

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"

	"ctrise/internal/dnsname"
	"ctrise/internal/ecosystem"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
)

// Target describes one monitored service.
type Target struct {
	// Service is the display name used in Table 3.
	Service string
	// Patterns are regular expressions over the full (normalized) FQDN;
	// any match flags the name.
	Patterns []*regexp.Regexp
	// LegitDomains are registrable domains owned by the service; names
	// under them are never flagged ("subdomains of apple.com are
	// considered legitimate Apple domains").
	LegitDomains map[string]bool

	// literals[i] is a string every match of Patterns[i] contains, or ""
	// when there is none. A Target built without NewTarget has none, and
	// all its patterns run on every name.
	literals []string
}

// NewTarget compiles a target from pattern strings.
func NewTarget(service string, patterns []string, legit []string) (*Target, error) {
	t := &Target{Service: service, LegitDomains: make(map[string]bool, len(legit))}
	for _, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, err
		}
		t.Patterns = append(t.Patterns, re)
		t.literals = append(t.literals, requiredLiteral(p))
	}
	for _, d := range legit {
		t.LegitDomains[dnsname.Normalize(d)] = true
	}
	return t, nil
}

// requiredLiteral returns the longest literal that every match of the
// regular expression expr must contain: the longest case-sensitive
// literal among the factors of its top-level concatenation (or expr
// itself when it is one literal). It returns "" when there is none.
// Literals holding U+FFFD are skipped, because the regexp engine matches
// that rune against invalid UTF-8 bytes, which strings.Contains would
// not.
func requiredLiteral(expr string) string {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return ""
	}
	factors := []*syntax.Regexp{re}
	if re.Op == syntax.OpConcat {
		factors = re.Sub
	}
	best := ""
	for _, f := range factors {
		if f.Op != syntax.OpLiteral || f.Flags&syntax.FoldCase != 0 {
			continue
		}
		lit := string(f.Rune)
		if len(lit) > len(best) && !strings.ContainsRune(lit, utf8.RuneError) {
			best = lit
		}
	}
	return best
}

// matches reports whether any of the target's patterns matches name,
// running a pattern's regex only when name contains its literal.
func (t *Target) matches(name string) bool {
	for i, re := range t.Patterns {
		if i < len(t.literals) && !strings.Contains(name, t.literals[i]) {
			continue
		}
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// DefaultTargets returns the five Table 3 services with the paper's
// matching approach: service-name substrings and label subsets of the
// services' login FQDNs.
func DefaultTargets() []*Target {
	mk := func(service string, patterns, legit []string) *Target {
		t, err := NewTarget(service, patterns, legit)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []*Target{
		mk("Apple",
			[]string{`appleid`, `apple\.com`, `icloud[-.]`},
			[]string{"apple.com", "icloud.com"}),
		mk("PayPal",
			[]string{`paypal`},
			[]string{"paypal.com", "paypal.me"}),
		mk("Microsoft",
			[]string{`hotmail`, `login\.live`, `login[-.]microsoft`, `outlook[-.]login`, `www[-.]hotmail`},
			[]string{"microsoft.com", "live.com", "outlook.com", "hotmail.com"}),
		mk("Google",
			[]string{`accounts\.google\.`, `google\.com[-.]`, `gmail[-.]login`},
			[]string{"google.com", "gmail.com", "youtube.com"}),
		mk("eBay",
			[]string{`ebay\.`, `[-.]ebay[-.]`, `^ebay[-.]`},
			[]string{"ebay.com", "ebay.co.uk", "ebay.de"}),
	}
}

// GovTarget matches government-taxation imitations (the ATO / HMRC / IRS
// examples of Section 5).
func GovTarget() *Target {
	t, err := NewTarget("Tax agencies",
		[]string{`ato\.gov\.au`, `hmrc\.gov\.uk`, `irs\.gov`},
		[]string{"gov.au", "gov.uk", "irs.gov"})
	if err != nil {
		panic(err)
	}
	return t
}

// Finding is one flagged domain.
type Finding struct {
	Service string
	FQDN    string
	// Suffix is the name's public suffix, for the Table 3 suffix-linkage
	// analysis.
	Suffix string
}

// Detector scans names against a set of targets.
type Detector struct {
	Targets []*Target
	PSL     *psl.List
}

// NewDetector builds a detector over the default targets.
func NewDetector() *Detector {
	return &Detector{Targets: DefaultTargets(), PSL: psl.Default()}
}

// Check tests one name against all targets, returning at most one finding
// per service. A name without a registrable domain is never flagged.
func (d *Detector) Check(name string) []Finding {
	name = dnsname.Normalize(dnsname.TrimWildcard(name))
	if name == "" {
		return nil
	}
	var out []Finding
	var regDomain, suffix string
	for _, t := range d.Targets {
		if !t.matches(name) {
			continue
		}
		if regDomain == "" {
			var err error
			if regDomain, err = d.PSL.RegistrableDomain(name); err != nil {
				return nil
			}
			suffix = d.PSL.PublicSuffix(name)
		}
		if !t.LegitDomains[regDomain] {
			out = append(out, Finding{Service: t.Service, FQDN: name, Suffix: suffix})
		}
	}
	return out
}

// Report aggregates findings per service (Table 3) and per (service,
// suffix) for the suffix-linkage observations.
type Report struct {
	// Unique potential phishing domains per service, deduplicated by
	// service and normalized FQDN.
	PerService *stats.Counter
	// SuffixPerService counts suffixes within each service's findings.
	SuffixPerService map[string]*stats.Counter
	// Examples holds one sample finding per service.
	Examples map[string]string
	// Total is the number of unique flagged names across services.
	Total uint64
}

// Scan runs the detector over every name of a sharded name set plus the
// extra names, checking names on up to parallelism workers (0 means
// GOMAXPROCS), and aggregates the report. A name in both sources counts
// once. The report does not depend on parallelism or on the order the
// names are visited in.
func (d *Detector) Scan(names *stats.StringSet, extra []string, parallelism int) *Report {
	shards := 0
	if names != nil {
		shards = names.NumShards()
	}
	// Work item i < shards checks shard i in place; the last one checks
	// the extra names. Findings are rare, so each item keeps its own and
	// the merge below dedupes them.
	found := make([][]Finding, shards+1)
	ecosystem.ForEach(shards+1, parallelism, func(i int) {
		check := func(name string) { found[i] = append(found[i], d.Check(name)...) }
		if i < shards {
			names.ForEachShard(i, check)
			return
		}
		for _, name := range extra {
			check(name)
		}
	})
	r := &Report{
		PerService:       stats.NewCounter(),
		SuffixPerService: make(map[string]*stats.Counter),
		Examples:         make(map[string]string),
	}
	type key struct{ service, fqdn string }
	seen := make(map[key]bool)
	for _, fs := range found {
		for _, f := range fs {
			k := key{f.Service, f.FQDN}
			if seen[k] {
				continue
			}
			seen[k] = true
			r.PerService.Inc(f.Service)
			sc := r.SuffixPerService[f.Service]
			if sc == nil {
				sc = stats.NewCounter()
				r.SuffixPerService[f.Service] = sc
			}
			sc.Inc(f.Suffix)
			// Keep the lexicographically smallest finding as the example,
			// so it does not depend on visiting order.
			if cur, ok := r.Examples[f.Service]; !ok || f.FQDN < cur {
				r.Examples[f.Service] = f.FQDN
			}
			r.Total++
		}
	}
	return r
}

// SuffixShare returns the fraction of a service's findings under any of
// the given suffixes (e.g. eBay's 28% on bid+review).
func (r *Report) SuffixShare(service string, suffixes ...string) float64 {
	sc := r.SuffixPerService[service]
	if sc == nil {
		return 0
	}
	var hit uint64
	for _, s := range suffixes {
		hit += sc.Get(s)
	}
	return stats.Percent(hit, r.PerService.Get(service))
}
