package subenum

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"ctrise/internal/dnssim"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
)

func corpusFromNames(names ...string) *stats.StringSet {
	s := stats.NewStringSet(0)
	for _, n := range names {
		s.Add(n)
	}
	return s
}

func TestCensusCountsLabels(t *testing.T) {
	corpus := corpusFromNames(
		"www.alpha.de", "mail.alpha.de", "alpha.de",
		"www.beta.de", "www.gamma.co.uk",
		"dev.api.gamma.co.uk", // two labels
		"*.delta.de",          // wildcard stripped -> counts nothing (bare domain)
		"not_a_valid..name",   // rejected
		"singlelabel",         // rejected
	)
	c := RunCensus(corpus, psl.Default(), 0)
	if c.Labels.Get("www") != 3 {
		t.Fatalf("www = %d", c.Labels.Get("www"))
	}
	if c.Labels.Get("mail") != 1 || c.Labels.Get("dev") != 1 || c.Labels.Get("api") != 1 {
		t.Fatal("label counts")
	}
	if c.Rejected != 2 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
	if c.ValidFQDNs != 7 {
		t.Fatalf("valid = %d", c.ValidFQDNs)
	}
	top := c.Table2(1)
	if top[0].Key != "www" {
		t.Fatalf("top label = %q", top[0].Key)
	}
}

func TestCensusPerSuffix(t *testing.T) {
	corpus := corpusFromNames(
		"git.one.tech", "git.two.tech", "www.one.tech",
		"api.one.cloud", "api.two.cloud",
	)
	c := RunCensus(corpus, psl.Default(), 0)
	tops := c.TopLabelPerSuffix(2)
	if tops["tech"] != "git" {
		t.Fatalf("tech top = %q", tops["tech"])
	}
	if tops["cloud"] != "api" {
		t.Fatalf("cloud top = %q", tops["cloud"])
	}
	// A suffix below minCount is absent.
	if _, ok := tops["de"]; ok {
		t.Fatal("de should be absent")
	}
}

func TestWordlistCoverage(t *testing.T) {
	corpus := corpusFromNames("www.a.de", "mail.a.de", "obscure-xyz.a.de")
	c := RunCensus(corpus, psl.Default(), 0)
	wordlist := []string{"www", "mail", "ftp", "intranet", "backup"}
	if got := c.WordlistCoverage(wordlist); got != 2 {
		t.Fatalf("coverage = %d", got)
	}
}

func TestConstructStrategy(t *testing.T) {
	// Corpus: "mail" frequent in .de and .nl; "rare" label below threshold.
	corpus := stats.NewStringSet(0)
	for i := 0; i < 10; i++ {
		corpus.Add(fmt.Sprintf("mail.dom%d.de", i))
	}
	for i := 0; i < 5; i++ {
		corpus.Add(fmt.Sprintf("mail.dom%d.nl", i))
	}
	corpus.Add("rare.x.de")
	for i := 0; i < 20; i++ {
		corpus.Add(fmt.Sprintf("mail.gen%d.com", i)) // .com is skipped
	}
	c := RunCensus(corpus, psl.Default(), 0)

	domains := map[string][]string{
		"de":  {"known1.de", "known2.de"},
		"nl":  {"known3.nl"},
		"com": {"known4.com"},
	}
	cands := Construct(c, domains, ConstructConfig{MinLabelCount: 5})
	// mail×(known1.de, known2.de, known3.nl) = 3; "rare" below threshold;
	// .com skipped.
	if len(cands) != 3 {
		t.Fatalf("candidates = %d: %+v", len(cands), cands)
	}
	seen := map[string]bool{}
	for _, cd := range cands {
		if cd.Label != "mail" {
			t.Fatalf("label = %q", cd.Label)
		}
		seen[cd.FQDN] = true
	}
	if !seen["mail.known1.de"] || !seen["mail.known3.nl"] {
		t.Fatalf("candidates = %v", seen)
	}
}

func TestConstructTopSuffixesBound(t *testing.T) {
	corpus := stats.NewStringSet(0)
	suffixes := []string{"de", "nl", "fr", "it", "es"}
	for i, sfx := range suffixes {
		for j := 0; j <= i*3+5; j++ {
			corpus.Add(fmt.Sprintf("api.d%d.%s", j, sfx))
		}
	}
	c := RunCensus(corpus, psl.Default(), 0)
	domains := map[string][]string{}
	for _, sfx := range suffixes {
		domains[sfx] = []string{"k." + sfx}
	}
	cands := Construct(c, domains, ConstructConfig{MinLabelCount: 1, TopSuffixes: 2})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2 (top-2 suffixes only)", len(cands))
	}
}

type allRoutes struct{}

func (allRoutes) InRoutingTable(net.IP) bool { return true }

type noRoutes struct{}

func (noRoutes) InRoutingTable(net.IP) bool { return false }

func buildVerifyUniverse(t *testing.T) *dnssim.Universe {
	t.Helper()
	u := dnssim.NewUniverse()
	// real.de: has mail, no www beyond base.
	z1 := dnssim.NewZone("real.de")
	z1.AddA("real.de", net.IPv4(192, 0, 2, 1))
	z1.AddA("mail.real.de", net.IPv4(192, 0, 2, 2))
	u.AddZone(z1)
	// parked.tk: default-A zone (wildcard-like), answers anything.
	z2 := dnssim.NewZone("parked.tk")
	z2.DefaultA = net.IPv4(198, 51, 100, 9)
	u.AddZone(z2)
	// chain.nl: mail is a CNAME chain to an A.
	z3 := dnssim.NewZone("chain.nl")
	z3.AddCNAME("mail.chain.nl", "mx.chain.nl")
	z3.AddA("mx.chain.nl", net.IPv4(192, 0, 2, 3))
	u.AddZone(z3)
	// empty.fr: exists but has no mail record.
	z4 := dnssim.NewZone("empty.fr")
	z4.AddA("empty.fr", net.IPv4(192, 0, 2, 4))
	u.AddZone(z4)
	return u
}

func TestVerifyFunnel(t *testing.T) {
	u := buildVerifyUniverse(t)
	cands := []Candidate{
		{FQDN: "mail.real.de", Label: "mail", Domain: "real.de"},
		{FQDN: "mail.parked.tk", Label: "mail", Domain: "parked.tk"},
		{FQDN: "mail.chain.nl", Label: "mail", Domain: "chain.nl"},
		{FQDN: "mail.empty.fr", Label: "mail", Domain: "empty.fr"},
	}
	res := Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 1})
	if res.Constructed != 4 {
		t.Fatalf("constructed = %d", res.Constructed)
	}
	// Answers: real.de, parked.tk (default A), chain.nl. empty.fr: no.
	if res.TestAnswers != 3 {
		t.Fatalf("test answers = %d", res.TestAnswers)
	}
	// Controls: only parked.tk answers random names.
	if res.ControlAnswers != 1 {
		t.Fatalf("control answers = %d", res.ControlAnswers)
	}
	// New FQDNs: real.de and chain.nl survive; parked.tk filtered by
	// control.
	if len(res.NewFQDNs) != 2 {
		t.Fatalf("new = %v", res.NewFQDNs)
	}
	if res.NewFQDNs[0] != "mail.chain.nl" || res.NewFQDNs[1] != "mail.real.de" {
		t.Fatalf("new = %v", res.NewFQDNs)
	}
}

func TestVerifyRoutingTableFilter(t *testing.T) {
	u := buildVerifyUniverse(t)
	cands := []Candidate{{FQDN: "mail.real.de", Label: "mail", Domain: "real.de"}}
	res := Verify(cands, u, noRoutes{}, VerifyConfig{Seed: 2})
	if res.TestAnswers != 0 || len(res.NewFQDNs) != 0 {
		t.Fatalf("unrouted answers accepted: %+v", res)
	}
	if res.UnroutedDiscarded == 0 {
		t.Fatal("no unrouted discard recorded")
	}
}

func TestVerifyCNAMELimit(t *testing.T) {
	u := dnssim.NewUniverse()
	z := dnssim.NewZone("deep.de")
	for i := 0; i < 12; i++ {
		z.AddCNAME(fmt.Sprintf("c%d.deep.de", i), fmt.Sprintf("c%d.deep.de", i+1))
	}
	z.AddA("c12.deep.de", net.IPv4(192, 0, 2, 5))
	u.AddZone(z)
	// 12 hops exceeds the 10-hop limit.
	cands := []Candidate{{FQDN: "c0.deep.de", Label: "c0", Domain: "deep.de"}}
	res := Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 3})
	if res.TestAnswers != 0 {
		t.Fatal("over-long CNAME chain accepted")
	}
	// 8 hops is fine.
	cands = []Candidate{{FQDN: "c4.deep.de", Label: "c4", Domain: "deep.de"}}
	res = Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 4})
	if res.TestAnswers != 1 {
		t.Fatal("legal CNAME chain rejected")
	}
}

func TestCompareSonar(t *testing.T) {
	sonar := SonarDB{"mail.a.de": {}, "www.b.de": {}}
	known, unknown := CompareSonar([]string{"mail.a.de", "mail.c.de", "mail.d.de"}, sonar)
	if known != 1 || unknown != 2 {
		t.Fatalf("known=%d unknown=%d", known, unknown)
	}
}

func TestOverlapStats(t *testing.T) {
	corpus := corpusFromNames("www.a.de", "mail.a.de", "www.b.de", "api.c.de")
	c := RunCensus(corpus, psl.Default(), 0)
	sonar := SonarDB{
		"www.a.de":  {},
		"smtp.b.de": {},
		"ftp.qq.de": {},
	}
	domOverlap, labOverlap := OverlapStats(c, sonar, psl.Default())
	// Corpus domains: a.de, b.de, c.de; Sonar has a.de, b.de, qq.de -> 2/3.
	if domOverlap < 66 || domOverlap > 67 {
		t.Fatalf("domain overlap = %.1f", domOverlap)
	}
	// Corpus labels: www, mail, api; Sonar labels: www, smtp, ftp -> 1/3.
	if labOverlap < 33 || labOverlap > 34 {
		t.Fatalf("label overlap = %.1f", labOverlap)
	}
}

func TestVerifyDeterministicUnderConcurrency(t *testing.T) {
	u := buildVerifyUniverse(t)
	rng := rand.New(rand.NewSource(5))
	var cands []Candidate
	for i := 0; i < 500; i++ {
		dom := []string{"real.de", "parked.tk", "chain.nl", "empty.fr"}[rng.Intn(4)]
		cands = append(cands, Candidate{FQDN: fmt.Sprintf("x%d.%s", i, dom), Label: "x", Domain: dom})
	}
	run := func() uint64 {
		return Verify(cands, u, allRoutes{}, VerifyConfig{Seed: 6}).TestAnswers
	}
	if run() != run() {
		t.Fatal("verification not deterministic")
	}
}
