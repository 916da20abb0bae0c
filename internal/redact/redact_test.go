package redact

import (
	"testing"

	"ctrise/internal/certs"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
	"ctrise/internal/subenum"
)

func TestNameRedaction(t *testing.T) {
	list := psl.Default()
	cases := map[string]string{
		"secret.internal.example.com": "?.?.example.com",
		"www.example.co.uk":           "?.example.co.uk",
		"example.com":                 "example.com", // nothing to hide
		"*.example.com":               "example.com", // wildcard strips to apex
		"autodiscover.corp.de":        "?.corp.de",
		"com":                         "com", // unsplittable passes through
	}
	for in, want := range cases {
		if got := Name(in, list); got != want {
			t.Errorf("Name(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCertificateRedactionCollapses(t *testing.T) {
	list := psl.Default()
	cert := &certs.Certificate{
		Subject:  certs.Name{CommonName: "www.victim.de"},
		DNSNames: []string{"www.victim.de", "mail.victim.de", "cpanel.victim.de", "victim.de"},
	}
	red := Certificate(cert, list)
	if red.Subject.CommonName != "?.victim.de" {
		t.Fatalf("CN = %q", red.Subject.CommonName)
	}
	// Three hostnames collapse into one "?" entry plus the apex.
	if len(red.DNSNames) != 2 {
		t.Fatalf("SANs = %v", red.DNSNames)
	}
	if red.DNSNames[0] != "?.victim.de" || red.DNSNames[1] != "victim.de" {
		t.Fatalf("SANs = %v", red.DNSNames)
	}
	// The original is untouched.
	if len(cert.DNSNames) != 4 {
		t.Fatal("redaction mutated the input")
	}
}

func TestRedactedCorpusLeaksNothing(t *testing.T) {
	list := psl.Default()
	corpus := map[string]struct{}{
		"www.a.de":          {},
		"mail.a.de":         {},
		"cpanel.b.co.uk":    {},
		"dev.api.c.com":     {},
		"d.com":             {},
		"autodiscover.e.fr": {},
	}
	// Before: the census sees the sensitive labels.
	if leaked := LeakedLabels(corpus, list); len(leaked) == 0 || leaked["cpanel"] != 1 {
		t.Fatalf("pre-redaction leak = %v", leaked)
	}
	red := Corpus(corpus, list)
	if leaked := LeakedLabels(red, list); len(leaked) != 0 {
		t.Fatalf("post-redaction leak = %v", leaked)
	}
	// The Table 2 census pipeline also recovers nothing: every subdomain
	// label is the placeholder, which is not a valid FQDN label and is
	// rejected, or the bare domain, which has no labels.
	redSet := stats.NewStringSet(0)
	for n := range red {
		redSet.Add(n)
	}
	census := subenum.RunCensus(redSet, list, 0)
	for _, kv := range census.Table2(10) {
		if kv.Key != "" && kv.Key != Placeholder {
			t.Fatalf("census recovered label %q from redacted corpus", kv.Key)
		}
	}
	// Domains remain visible (redaction hides hostnames, not existence).
	if _, ok := red["?.a.de"]; !ok {
		t.Fatalf("redacted corpus = %v", red)
	}
}

func TestCorpusDeduplication(t *testing.T) {
	list := psl.Default()
	corpus := map[string]struct{}{}
	for _, n := range []string{"a.x.de", "b.x.de", "c.x.de", "d.x.de"} {
		corpus[n] = struct{}{}
	}
	red := Corpus(corpus, list)
	if len(red) != 1 {
		t.Fatalf("redacted size = %d, want 1 (all collapse to ?.x.de)", len(red))
	}
}
