package experiments

import (
	"fmt"
	"math/rand"
	"net"

	"ctrise/internal/asn"
	"ctrise/internal/dnssim"
	"ctrise/internal/ecosystem"
	"ctrise/internal/report"
	"ctrise/internal/stats"
	"ctrise/internal/subenum"
)

// Section4Result backs Table 2 and the Section 4.3 funnel.
type Section4Result struct {
	Census *subenum.Census
	Table2 []stats.KV
	// TopPerSuffix is the Section 4.2 most-common-label-per-suffix view.
	TopPerSuffix map[string]string
	// Wordlist coverage (subbrute / dnsrecon).
	SubbruteHits int
	DNSReconHits int
	// Funnel is the Section 4.3 verification outcome.
	Funnel *subenum.VerifyResult
	// SonarKnown/SonarNew split the newly found FQDNs.
	SonarKnown uint64
	SonarNew   uint64
	// DomainOverlap/LabelOverlap are the Section 4.1 corpus/Sonar
	// overlap percentages.
	DomainOverlap float64
	LabelOverlap  float64
	Candidates    int
}

// labelExistence gives, per enumeration label, the probability a domain
// actually operates that name in DNS (beyond what its certificate
// covers). Values are chosen so the overall hit rate reproduces the
// Section 4.3 funnel: ≈38% answers including ≈29% wildcard zones, i.e.
// ≈12.8% true existence on non-wildcard domains.
var labelExistence = map[string]float64{
	"www": 0.85, "mail": 0.30, "webmail": 0.18, "smtp": 0.16,
	"cpanel": 0.13, "webdisk": 0.12, "autodiscover": 0.11,
	"m": 0.09, "api": 0.10, "dev": 0.10, "test": 0.09, "blog": 0.10,
	"shop": 0.09, "remote": 0.08, "secure": 0.08, "admin": 0.07,
	"mobile": 0.07, "server": 0.08, "cloud": 0.07, "whm": 0.06,
}

const defaultLabelExistence = 0.06

// Universe-shape parameters (Section 4.3 calibration).
const (
	pWildcardZone  = 0.29 // zones answering any name (control names hit these)
	pMisconfigured = 0.01 // zones answering with unrouted addresses
	pCNAMEChain    = 0.05 // existing names reached via CNAME indirection
)

// Section4 runs the census over the harvested CT corpus, builds the
// simulated global DNS, constructs candidate FQDNs per the paper's
// strategy, verifies them massdns-style, and compares against a
// synthetic Sonar snapshot.
func (s *Suite) Section4() (*Section4Result, error) {
	w, h, err := s.World()
	if err != nil {
		return nil, err
	}
	// Zero-copy handoff: the census consumes the harvest's sharded FQDN
	// set in place instead of materializing the corpus into a map.
	census := subenum.RunCensus(h.NameSet, w.PSL, s.opts.Parallelism)
	res := &Section4Result{
		Census:       census,
		Table2:       census.Table2(20),
		TopPerSuffix: census.TopLabelPerSuffix(5),
		SubbruteHits: census.WordlistCoverage(subbruteSample),
		DNSReconHits: census.WordlistCoverage(dnsreconSample),
	}

	// The candidate label set: everything above the scaled threshold.
	wwwCount := census.Labels.Get("www")
	minCount := wwwCount / 600
	if minCount < 3 {
		minCount = 3
	}

	// Build the simulated Internet and the Sonar snapshot.
	rng := rand.New(rand.NewSource(s.opts.Seed + 44))
	universe, sonar := buildDNSWorld(rng, w, census, minCount, s.opts.Parallelism)

	// The paper prepends labels to its 206M-entry registrable-domain
	// list; ours is the world population grouped by suffix.
	domainsBySuffix := make(map[string][]string)
	for _, d := range w.Domains {
		domainsBySuffix[d.Suffix] = append(domainsBySuffix[d.Suffix], d.Name)
	}

	candidates := subenum.Construct(census, domainsBySuffix, subenum.ConstructConfig{
		MinLabelCount: minCount,
		Parallelism:   s.opts.Parallelism,
	})
	res.Candidates = len(candidates)

	registry := asn.DefaultRegistry()
	res.Funnel = subenum.Verify(candidates, universe, registry, subenum.VerifyConfig{
		Seed:        s.opts.Seed + 45,
		Parallelism: s.opts.Parallelism,
	})
	res.SonarKnown, res.SonarNew = subenum.CompareSonar(res.Funnel.NewFQDNs, sonar)
	res.DomainOverlap, res.LabelOverlap = subenum.OverlapStats(census, sonar, w.PSL)
	return res, nil
}

// Zone shapes of the simulated Internet, drawn per population domain.
const (
	zonePlain         uint8 = iota // apex plus the label names that exist
	zoneWildcard                   // parked / catch-all: answers anything
	zoneMisconfigured              // answers anything with unrouted space
)

// buildDNSWorld populates one zone per population domain and derives the
// Sonar snapshot with the Section 4.1 overlap characteristics. Every rng
// draw happens in one serial pass, in domain order, which records each
// domain's zone shape as a compact plan; the zones are then built from
// the plans on up to parallelism workers. The world is the same at every
// parallelism.
func buildDNSWorld(rng *rand.Rand, w *ecosystem.World, census *subenum.Census, minCount uint64, parallelism int) (*dnssim.Universe, subenum.SonarDB) {
	sonar := make(subenum.SonarDB)

	// Candidate labels above threshold, from the census, with the
	// probability that a domain operates each.
	var labels []string
	var exists []float64
	for _, kv := range census.Labels.TopK(census.Labels.Len()) {
		if kv.Count < minCount {
			break
		}
		p, ok := labelExistence[kv.Key]
		if !ok {
			p = defaultLabelExistence
		}
		labels = append(labels, kv.Key)
		exists = append(exists, p)
	}

	// The plan: kinds[i] is domain i's zone shape, and for a plain zone
	// names[offsets[i]:offsets[i+1]] are its existing label names, each
	// packed as label index << 1 | 1 if it is reached through a CNAME.
	kinds := make([]uint8, len(w.Domains))
	offsets := make([]int, len(w.Domains)+1)
	var names []uint32
	for i, d := range w.Domains {
		inSonar := rng.Float64() < 0.82
		switch {
		case rng.Float64() < pWildcardZone:
			kinds[i] = zoneWildcard
		case rng.Float64() < pMisconfigured/(1-pWildcardZone):
			kinds[i] = zoneMisconfigured
		default:
			for li, p := range exists {
				if rng.Float64() >= p {
					continue
				}
				name := uint32(li) << 1
				if rng.Float64() < pCNAMEChain {
					name |= 1
				}
				names = append(names, name)
				if inSonar && rng.Float64() < 0.04 {
					sonar[labels[li]+"."+d.Name] = struct{}{}
				}
			}
		}
		offsets[i+1] = len(names)
		if inSonar {
			sonar[d.Name] = struct{}{}
			if rng.Float64() < 0.1 {
				sonar["www."+d.Name] = struct{}{}
			}
		}
	}

	zones := make([]*dnssim.Zone, len(w.Domains))
	chunks := ecosystem.Ranges(len(w.Domains), 1024)
	ecosystem.ForEach(len(chunks), parallelism, func(c int) {
		for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
			d := w.Domains[i]
			z := dnssim.NewZone(d.Name)
			ip := net.IPv4(100, 64+byte(i>>16), byte(i>>8), byte(i))
			switch kinds[i] {
			case zoneWildcard:
				z.DefaultA = ip
			case zoneMisconfigured:
				z.DefaultA = net.IPv4(8, 8, byte(i>>8), byte(i))
			default:
				z.AddA(d.Name, ip)
				for _, name := range names[offsets[i]:offsets[i+1]] {
					fqdn := labels[name>>1] + "." + d.Name
					if name&1 != 0 {
						target := "edge." + d.Name
						z.AddCNAME(fqdn, target)
						z.AddA(target, ip)
					} else {
						z.AddA(fqdn, ip)
					}
				}
			}
			zones[i] = z
		}
	})
	universe := dnssim.NewUniverse()
	for _, z := range zones {
		universe.AddZone(z)
	}
	return universe, sonar
}

// subbruteSample and dnsreconSample stand in for the hacking tools'
// wordlists (Section 4.3): mostly exotic entries that do not occur as
// CT subdomain labels, plus the handful that do.
var subbruteSample = []string{
	"www", "mail", "ftp", "ns3", "intranet-old", "backup-2012", "legacy-vpn",
	"test-01x", "srv-internal", "corp-gw", "moodle-dev", "zzz-archive",
	"oldmail-bak", "print-srv", "dc01-internal", "sap-qa",
}

var dnsreconSample = []string{
	"www", "ftp", "mx0", "ns1-old", "fw-mgmt", "ids-sensor", "lab-net",
	"dmz-host",
}

// RenderTable2 renders the top-20 label table.
func (r *Section4Result) RenderTable2() string {
	tbl := &report.Table{
		Title:   "Table 2: top 20 subdomain labels in CT-logged certificates",
		Headers: []string{"#", "SDL", "Count"},
	}
	for i, kv := range r.Table2 {
		tbl.AddRow(fmt.Sprint(i+1), kv.Key, report.Humanize(float64(kv.Count)))
	}
	return tbl.Render()
}

// RenderSection43 renders the enumeration funnel.
func (r *Section4Result) RenderSection43() string {
	f := r.Funnel
	tbl := &report.Table{
		Title:   "Section 4.3: subdomain enumeration funnel",
		Headers: []string{"Stage", "Count", "Share of constructed"},
	}
	row := func(name string, v uint64) {
		tbl.AddRow(name, fmt.Sprint(v), fmt.Sprintf("%.1f%%", stats.Percent(v, f.Constructed)))
	}
	row("constructed FQDNs", f.Constructed)
	row("answers to test names", f.TestAnswers)
	row("answers to pseudorandom controls", f.ControlAnswers)
	row("new FQDNs (test ok, control not)", uint64(len(f.NewFQDNs)))
	row("of which known to Sonar", r.SonarKnown)
	row("newly discovered (not in Sonar)", r.SonarNew)
	tbl.AddRow("corpus/Sonar domain overlap", fmt.Sprintf("%.0f%%", r.DomainOverlap), "")
	tbl.AddRow("corpus/Sonar label overlap", fmt.Sprintf("%.0f%%", r.LabelOverlap), "")
	tbl.AddRow("subbrute wordlist hits", fmt.Sprint(r.SubbruteHits), "")
	tbl.AddRow("dnsrecon wordlist hits", fmt.Sprint(r.DNSReconHits), "")
	return tbl.Render()
}
