package dnssim

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"ctrise/internal/dnsmsg"
)

// resolveSink keeps the compiler from discarding the measured call.
var resolveSink Result

// BenchmarkUniverseResolveChain measures one massdns-style A resolution
// (CNAMEs chased) against a universe shaped like Section 4.3's: plain
// zones with a few labelled names, some reached through a CNAME,
// default-answer zones, and queries that are mostly NXDOMAIN.
func BenchmarkUniverseResolveChain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := NewUniverse()
	labels := []string{"www", "mail", "api", "dev", "shop", "cpanel", "webmail", "blog"}
	const zones = 2000
	for i := 0; i < zones; i++ {
		origin := fmt.Sprintf("domain-%d.com", i)
		z := NewZone(origin)
		ip := net.IPv4(100, 64, byte(i>>8), byte(i))
		if rng.Intn(10) < 3 {
			z.DefaultA = ip
		} else {
			z.AddA(origin, ip)
			for _, l := range labels {
				if rng.Intn(8) != 0 {
					continue
				}
				if rng.Intn(20) == 0 {
					z.AddCNAME(l+"."+origin, "edge."+origin)
					z.AddA("edge."+origin, ip)
				} else {
					z.AddA(l+"."+origin, ip)
				}
			}
		}
		u.AddZone(z)
	}
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = fmt.Sprintf("%s.domain-%d.com", labels[rng.Intn(len(labels))], rng.Intn(zones))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveSink, _ = u.ResolveChain(queries[i%len(queries)], dnsmsg.TypeA, 10)
	}
}
