package phish

import (
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ctrise/internal/dnsname"
	"ctrise/internal/ecosystem"
)

// refCheck is the Check the prefiltered one replaced: both public-suffix
// lookups first, then every pattern's regex for every target.
func refCheck(d *Detector, name string) []Finding {
	name = dnsname.Normalize(dnsname.TrimWildcard(name))
	if name == "" {
		return nil
	}
	regDomain, err := d.PSL.RegistrableDomain(name)
	if err != nil {
		return nil
	}
	suffix := d.PSL.PublicSuffix(name)
	var out []Finding
	for _, t := range d.Targets {
		if t.LegitDomains[regDomain] {
			continue
		}
		for _, re := range t.Patterns {
			if re.MatchString(name) {
				out = append(out, Finding{Service: t.Service, FQDN: name, Suffix: suffix})
				break
			}
		}
	}
	return out
}

// harvestNames returns the FQDNs a small simulated CT harvest yields,
// sorted, plus the names Generate injects into it.
func harvestNames(t *testing.T) []string {
	t.Helper()
	w, err := ecosystem.New(ecosystem.Config{
		Seed:          11,
		TimelineStart: ecosystem.Date(2018, 3, 1),
		TimelineEnd:   ecosystem.Date(2018, 4, 10),
		NumDomains:    3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	h, err := w.HarvestLogs(ecosystem.Date(2018, 3, 1), ecosystem.Date(2018, 4, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	corpus := h.NameSet.Snapshot()
	Generate(GenConfig{Seed: 5, Scale: 0.02}, corpus)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// edgeNames are spellings a CT name field can carry that the fast path
// must treat exactly as the reference does.
var edgeNames = []string{
	"", "*.", ".", "com", "co.uk", "paypal", "paypal.", "PayPal.COM-secure.tk",
	"*.appleid-verify.ga", "appleid.apple.com.", "login.live.com-x.live",
	"ebay", "ebay.com", "x.ebay-y.com", "ebay-shop.de", "my.ebay.co.uk",
	"icloud-login\xff.tk", "apple\xef\xbf\xbd.com", "hmrc.gov.uk-refund.cf", "irs.gov",
	"  paypal-pad.com  ", "accounts.google.evil", "google.com.phish.tk",
}

func TestCheckMatchesReference(t *testing.T) {
	d := &Detector{Targets: append(DefaultTargets(), GovTarget()), PSL: NewDetector().PSL}
	names := append(harvestNames(t), edgeNames...)
	flagged := 0
	for _, name := range names {
		got, want := d.Check(name), refCheck(d, name)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Check(%q) = %+v, reference %+v", name, got, want)
		}
		flagged += len(got)
	}
	if flagged == 0 {
		t.Fatal("corpus flagged nothing; the comparison is vacuous")
	}
	t.Logf("%d names, %d findings", len(names), flagged)
}

func TestRequiredLiteral(t *testing.T) {
	for expr, want := range map[string]string{
		`paypal`:               "paypal",
		`apple\.com`:           "apple.com",
		`icloud[-.]`:           "icloud",
		`login[-.]microsoft`:   "microsoft",
		`[-.]ebay[-.]`:         "ebay",
		`^ebay[-.]`:            "ebay",
		`accounts\.google\.`:   "accounts.google.",
		`(?i)paypal`:           "",
		`pay|pal`:              "pa",
		`appleid|icloud`:       "",
		`(paypal)`:             "",
		`paypal?`:              "paypa",
		`[a-z]+\.tk$`:          ".tk",
		`apple\x{FFFD}`:        "",
		`a(?i:BC)defgh`:        "defgh",
		`paypal-(?:secure|id)`: "paypal-",
		`(`:                    "",
	} {
		if got := requiredLiteral(expr); got != want {
			t.Errorf("requiredLiteral(%q) = %q, want %q", expr, got, want)
		}
	}
}

// TestTargetWithoutNewTargetRunsEveryPattern covers a Target assembled
// by hand, which carries no literals: every pattern must still run.
func TestTargetWithoutNewTargetRunsEveryPattern(t *testing.T) {
	target := &Target{Service: "X", Patterns: []*regexp.Regexp{regexp.MustCompile(`shop`)}}
	d := &Detector{Targets: []*Target{target}, PSL: NewDetector().PSL}
	if got := d.Check("myshop.example.com"); len(got) != 1 {
		t.Fatalf("hand-built target missed: %+v", got)
	}
}

// FuzzCheck compares the prefiltered Check with the reference for an
// arbitrary extra pattern and name. The seed corpus in testdata holds
// patterns with and without a required literal.
func FuzzCheck(f *testing.F) {
	f.Add(`paypal`, "paypal-secure1.tk")
	f.Add(`(?i)PayPal`, "www.paypal.com")
	f.Add(`pay|pal`, "x.pal.tk")
	f.Add(`^[a-z]+\.tk$`, "abc.tk")
	psl := NewDetector().PSL
	f.Fuzz(func(t *testing.T, pattern, name string) {
		target, err := NewTarget("Fuzz", []string{pattern}, []string{"example.com"})
		if err != nil {
			return
		}
		d := &Detector{Targets: append(DefaultTargets(), target), PSL: psl}
		got, want := d.Check(name), refCheck(d, name)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %q name %q: Check %+v, reference %+v (literal %q)",
				pattern, name, got, want, strings.Join(target.literals, ","))
		}
	})
}
