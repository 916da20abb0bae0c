package phish

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchNames is a CT-shaped name mix: mostly ordinary subdomains of
// ordinary registrable domains, with phishing names injected at about
// the share Table 3 finds in a harvest (under 1%).
func benchNames(n int) []string {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"www", "mail", "api", "dev", "shop", "cdn", "*", "login", "secure", "m"}
	suffixes := []string{"com", "de", "net", "org", "co.uk", "tk", "info", "xyz"}
	corpus := make(map[string]struct{})
	Generate(GenConfig{Seed: 3, Scale: 0.002}, corpus)
	var phishing []string
	for name := range corpus {
		phishing = append(phishing, name)
	}
	out := make([]string, n)
	for i := range out {
		if rng.Intn(200) == 0 {
			out[i] = phishing[rng.Intn(len(phishing))]
			continue
		}
		out[i] = fmt.Sprintf("%s.site-%d.%s", labels[rng.Intn(len(labels))], rng.Intn(50000), suffixes[rng.Intn(len(suffixes))])
	}
	return out
}

// checkSink keeps the compiler from discarding the measured call.
var checkSink []Finding

// BenchmarkDetectorCheck measures one Check call, the per-name cost of
// the Table 3 scan, over the Table 3 targets.
func BenchmarkDetectorCheck(b *testing.B) {
	d := &Detector{Targets: append(DefaultTargets(), GovTarget()), PSL: NewDetector().PSL}
	names := benchNames(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkSink = d.Check(names[i%len(names)])
	}
}
