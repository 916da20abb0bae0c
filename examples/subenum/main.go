// Example subenum demonstrates the Section 4 pipeline on a small synthetic world:
// a CT name corpus is parsed into a subdomain-label census (Table 2),
// candidate FQDNs are constructed from frequent labels, and a
// massdns-style verifier with pseudorandom control names separates real
// subdomains from wildcard-zone noise.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"

	"ctrise/internal/asn"
	"ctrise/internal/dnssim"
	"ctrise/internal/psl"
	"ctrise/internal/stats"
	"ctrise/internal/subenum"
)

func main() {
	list := psl.Default()

	// A toy CT corpus: names extracted from certificates, deduplicated
	// in a sharded set as the harvest does.
	corpus := stats.NewStringSet(0)
	rng := rand.New(rand.NewSource(7))
	labels := []string{"www", "mail", "webmail", "api", "dev"}
	for i := 0; i < 200; i++ {
		domain := fmt.Sprintf("site%03d.de", i)
		corpus.Add(domain)
		for _, l := range labels {
			if rng.Float64() < map[string]float64{"www": 0.95, "mail": 0.3, "webmail": 0.15, "api": 0.1, "dev": 0.1}[l] {
				corpus.Add(l + "." + domain)
			}
		}
	}

	census := subenum.RunCensus(corpus, list, 0)
	fmt.Println("Top subdomain labels in the corpus (Table 2 shape):")
	for i, kv := range census.Table2(5) {
		fmt.Printf("  %d. %-8s %d\n", i+1, kv.Key, kv.Count)
	}

	// The simulated DNS: some domains exist with extra names the corpus
	// doesn't know; some are wildcard zones that answer anything.
	universe := dnssim.NewUniverse()
	knownDomains := map[string][]string{"de": nil}
	for i := 0; i < 300; i++ {
		domain := fmt.Sprintf("site%03d.de", i)
		knownDomains["de"] = append(knownDomains["de"], domain)
		z := dnssim.NewZone(domain)
		ip := net.IPv4(192, 0, 2, byte(i))
		if rng.Float64() < 0.25 {
			z.DefaultA = ip // parked: answers any name
		} else {
			z.AddA(domain, ip)
			for _, l := range labels {
				if rng.Float64() < 0.2 {
					z.AddA(l+"."+domain, ip)
				}
			}
		}
		universe.AddZone(z)
	}

	candidates := subenum.Construct(census, knownDomains, subenum.ConstructConfig{
		MinLabelCount: 5,
		SkipSuffixes:  map[string]bool{}, // keep .de in this demo
	})
	fmt.Printf("\nconstructed %d candidate FQDNs from %d frequent labels\n",
		len(candidates), len(census.Table2(100)))

	res := subenum.Verify(candidates, universe, asn.DefaultRegistry(), subenum.VerifyConfig{Seed: 1})
	fmt.Printf("answers to test names:      %d\n", res.TestAnswers)
	fmt.Printf("answers to control names:   %d (wildcard zones)\n", res.ControlAnswers)
	fmt.Printf("new, verified FQDNs:        %d\n", len(res.NewFQDNs))
	if len(res.NewFQDNs) == 0 {
		log.Fatal("expected discoveries")
	}
	fmt.Printf("examples: %v\n", res.NewFQDNs[:min(5, len(res.NewFQDNs))])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
