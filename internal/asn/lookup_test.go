package asn

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
)

// linearTable is the routing table Lookup replaced: every prefix in one
// slice, stably sorted longest first by net.IPMask.Size, scanned with
// net.IPNet.Contains. It is the reference the per-length maps must
// agree with.
type linearTable struct {
	prefixes []linearPrefix
}

type linearPrefix struct {
	net *net.IPNet
	asn uint32
}

func (l *linearTable) announce(cidr string, asn uint32) {
	_, n, err := net.ParseCIDR(cidr)
	if err != nil {
		panic(err)
	}
	l.prefixes = append(l.prefixes, linearPrefix{n, asn})
	sort.SliceStable(l.prefixes, func(i, j int) bool {
		li, _ := l.prefixes[i].net.Mask.Size()
		lj, _ := l.prefixes[j].net.Mask.Size()
		return li > lj
	})
}

func (l *linearTable) lookup(ip net.IP) (uint32, bool) {
	for _, p := range l.prefixes {
		if p.net.Contains(ip) {
			return p.asn, true
		}
	}
	return 0, false
}

// randomV4 draws from a small space so prefixes nest and collide.
func randomV4(rng *rand.Rand) net.IP {
	return net.IPv4(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256)))
}

func randomV6(rng *rand.Rand) net.IP {
	ip := net.ParseIP("2001:db8::")
	ip[4] = byte(rng.Intn(4))
	ip[15] = byte(rng.Intn(256))
	return ip
}

// randomCIDR returns an IPv4, IPv6 or IPv4-mapped IPv6 prefix.
func randomCIDR(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%s/%d", randomV4(rng), rng.Intn(33))
	case 1:
		return fmt.Sprintf("%s/%d", randomV6(rng), rng.Intn(129))
	default:
		return fmt.Sprintf("::ffff:%s/%d", randomV4(rng), 80+rng.Intn(49))
	}
}

// randomQuery returns an address in one of the forms callers pass:
// 16-byte IPv4 (net.IPv4), 4-byte IPv4, IPv4-mapped IPv6 text, IPv6, or
// a malformed length.
func randomQuery(rng *rand.Rand) net.IP {
	switch rng.Intn(6) {
	case 0:
		return randomV4(rng)
	case 1:
		return randomV4(rng).To4()
	case 2:
		return net.ParseIP("::ffff:" + randomV4(rng).String())
	case 3:
		return randomV6(rng)
	case 4:
		return net.IP{10, 0, 0}
	default:
		return net.IPv4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
}

func TestLookupMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		var ref linearTable
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			asn := uint32(i + 1)
			r.AddAS(AS{Number: asn})
			cidr := randomCIDR(rng)
			if err := r.Announce(cidr, asn); err != nil {
				t.Fatal(err)
			}
			ref.announce(cidr, asn)
			// Duplicates: the same prefix again under another AS, which
			// must lose to the first announcement.
			if rng.Intn(5) == 0 {
				if err := r.Announce(cidr, asn+1000); err != nil {
					t.Fatal(err)
				}
				ref.announce(cidr, asn+1000)
			}
		}
		for q := 0; q < 500; q++ {
			ip := randomQuery(rng)
			want, wantOK := ref.lookup(ip)
			as, ok := r.Lookup(ip)
			if ok != wantOK || ok && as.Number != want {
				t.Fatalf("seed %d: Lookup(%v) = %v %v, linear scan %d %v (prefixes %v)", seed, ip, as, ok, want, wantOK, ref.prefixes)
			}
			if r.InRoutingTable(ip) != wantOK {
				t.Fatalf("seed %d: InRoutingTable(%v) != %v", seed, ip, wantOK)
			}
		}
	}
}

func TestLookupMappedPrefixRanksByAnnouncedLength(t *testing.T) {
	r := NewRegistry()
	var ref linearTable
	for i, cidr := range []string{"10.5.0.0/16", "::ffff:10.0.0.0/104", "10.5.6.0/24", "::ffff:10.5.6.7/128"} {
		asn := uint32(i + 1)
		r.AddAS(AS{Number: asn})
		if err := r.Announce(cidr, asn); err != nil {
			t.Fatal(err)
		}
		ref.announce(cidr, asn)
	}
	for _, s := range []string{"10.5.6.7", "10.5.6.8", "10.5.7.1", "10.9.9.9", "11.0.0.1", "::ffff:10.5.6.7", "::a05:607"} {
		ip := net.ParseIP(s)
		want, wantOK := ref.lookup(ip)
		as, ok := r.Lookup(ip)
		if ok != wantOK || ok && as.Number != want {
			t.Errorf("Lookup(%s) = %v %v, linear scan %d %v", s, as, ok, want, wantOK)
		}
	}
}
