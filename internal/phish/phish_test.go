package phish

import (
	"testing"

	"ctrise/internal/stats"
)

// nameSet loads a corpus into the sharded set Scan reads.
func nameSet(corpus map[string]struct{}) *stats.StringSet {
	set := stats.NewStringSet(0)
	for name := range corpus {
		set.Add(name)
	}
	return set
}

func TestCheckFlagsPaperExamples(t *testing.T) {
	d := NewDetector()
	cases := map[string]string{ // example -> expected service
		"appleid.apple.com-7etr6eti.gq":     "Apple",
		"paypal.com-account-security.money": "PayPal",
		"www-hotmail-login.live":            "Microsoft",
		"accounts.google.co.am":             "Google",
		"www.ebay.co.uk.dll7.bid":           "eBay",
	}
	for name, service := range cases {
		findings := d.Check(name)
		found := false
		for _, f := range findings {
			if f.Service == service {
				found = true
			}
		}
		if !found {
			t.Errorf("Check(%q) missed %s: %+v", name, service, findings)
		}
	}
}

func TestCheckExcludesLegitimateDomains(t *testing.T) {
	d := NewDetector()
	for _, name := range []string{
		"appleid.apple.com",
		"www.paypal.com",
		"login.live.com",
		"accounts.google.com",
		"signin.ebay.co.uk",
	} {
		if findings := d.Check(name); len(findings) != 0 {
			t.Errorf("legitimate %q flagged: %+v", name, findings)
		}
	}
}

func TestCheckIgnoresUnrelated(t *testing.T) {
	d := NewDetector()
	for _, name := range []string{
		"www.example.com",
		"mail.pineapple-farm.de", // contains "apple" inside a word — accepted cost; verify explicitly
	} {
		findings := d.Check(name)
		if name == "www.example.com" && len(findings) != 0 {
			t.Errorf("%q flagged: %+v", name, findings)
		}
	}
}

func TestGovTarget(t *testing.T) {
	d := &Detector{Targets: []*Target{GovTarget()}, PSL: NewDetector().PSL}
	for _, name := range []string{
		"ato.gov.au.eng-atorefund.com",
		"hmrc.gov.uk-refund.cf",
		"refund.irs.gov.my-irs.com",
	} {
		if len(d.Check(name)) == 0 {
			t.Errorf("gov imitation %q not flagged", name)
		}
	}
}

func TestScanTable3Shape(t *testing.T) {
	corpus := make(map[string]struct{})
	// Background noise: legitimate names must not be flagged.
	for _, n := range []string{"www.example.com", "mail.foo.de", "appleid.apple.com", "www.paypal.com"} {
		corpus[n] = struct{}{}
	}
	truth := Generate(GenConfig{Seed: 1, Scale: 0.05}, corpus)

	d := &Detector{Targets: append(DefaultTargets(), GovTarget()), PSL: NewDetector().PSL}
	report := d.Scan(nameSet(corpus), nil, 0)

	// Ordering follows Table 3: Apple > PayPal >> Microsoft > Google > eBay.
	apple := report.PerService.Get("Apple")
	paypal := report.PerService.Get("PayPal")
	microsoft := report.PerService.Get("Microsoft")
	google := report.PerService.Get("Google")
	ebay := report.PerService.Get("eBay")
	if !(apple > paypal && paypal > microsoft && microsoft > google && google > ebay) {
		t.Fatalf("ordering: apple=%d paypal=%d ms=%d google=%d ebay=%d", apple, paypal, microsoft, google, ebay)
	}
	// Detector finds at least the generated ground truth per service
	// (regex recall = 100% on generated shapes).
	for svc, n := range truth {
		if got := report.PerService.Get(svc); got < uint64(n) {
			t.Errorf("%s: found %d, generated %d", svc, got, n)
		}
	}
	// eBay suffix linkage: bid+review ≈ 28%.
	if share := report.SuffixShare("eBay", "bid", "review"); share < 15 || share > 45 {
		t.Errorf("eBay bid+review share = %.1f%%, want ≈28%%", share)
	}
	// Microsoft on .live is a small minority (≈4%).
	if share := report.SuffixShare("Microsoft", "live"); share > 12 {
		t.Errorf("Microsoft .live share = %.1f%%", share)
	}
	// Examples exist for every service.
	if report.Examples["Apple"] == "" || report.Examples["eBay"] == "" {
		t.Error("missing examples")
	}
	if report.Total == 0 {
		t.Error("empty report")
	}
}

func TestScanDeduplicates(t *testing.T) {
	d := NewDetector()
	corpus := map[string]struct{}{
		"paypal-secure1.tk": {},
		"PayPal-Secure1.tk": {},
	}
	// The same name in the set, again as an extra name, and in another
	// spelling of one normalized FQDN counts once.
	r1 := d.Scan(nameSet(corpus), []string{"paypal-secure1.tk", "*.paypal-secure1.tk."}, 2)
	if r1.PerService.Get("PayPal") != 1 || r1.Total != 1 {
		t.Fatalf("count = %d", r1.PerService.Get("PayPal"))
	}
}

func TestNewTargetRejectsBadRegex(t *testing.T) {
	if _, err := NewTarget("x", []string{"("}, nil); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	run := func() int {
		corpus := make(map[string]struct{})
		Generate(GenConfig{Seed: 42, Scale: 0.005}, corpus)
		return len(corpus)
	}
	if run() != run() {
		t.Fatal("generator not deterministic")
	}
}
