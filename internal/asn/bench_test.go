package asn

import (
	"math/rand"
	"net"
	"testing"
)

// routedSink keeps the compiler from discarding the measured call.
var routedSink bool

// BenchmarkRegistryLookup measures one routing-table query against the
// default table, with the address mix Section 4.3's verifier feeds it:
// mostly site addresses in 100.64.0.0/10, some misconfigured-zone
// answers outside every prefix.
func BenchmarkRegistryLookup(b *testing.B) {
	r := DefaultRegistry()
	rng := rand.New(rand.NewSource(1))
	ips := make([]net.IP, 1024)
	for i := range ips {
		if rng.Intn(50) == 0 {
			ips[i] = net.IPv4(8, 8, byte(rng.Intn(256)), byte(rng.Intn(256)))
			continue
		}
		ips[i] = net.IPv4(100, 64+byte(rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routedSink = r.InRoutingTable(ips[i%len(ips)])
	}
}
