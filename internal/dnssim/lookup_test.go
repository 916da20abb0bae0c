package dnssim

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"ctrise/internal/dnsmsg"
)

// refLookup is the Zone.Lookup algorithm the fast path replaced: an
// in-zone test by concatenation, an unconditional wildcard walk, and a
// no-data check that iterates every record set. The fast path must
// answer exactly as it does.
func refLookup(z *Zone, name string, qtype dnsmsg.Type) ([]dnsmsg.Record, dnsmsg.RCode) {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if !(name == z.Origin || strings.HasSuffix(name, "."+z.Origin)) {
		return nil, dnsmsg.RCodeRefused
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	if rrs, ok := z.sets[rrKey{name, qtype}]; ok {
		return append([]dnsmsg.Record(nil), rrs...), dnsmsg.RCodeSuccess
	}
	if rrs, ok := z.sets[rrKey{name, dnsmsg.TypeCNAME}]; ok && qtype != dnsmsg.TypeCNAME {
		return append([]dnsmsg.Record(nil), rrs...), dnsmsg.RCodeSuccess
	}
	rest := name
	for rest != z.Origin && rest != "" {
		i := strings.IndexByte(rest, '.')
		if i < 0 {
			break
		}
		parent := rest[i+1:]
		wname := "*." + parent
		if rrs, ok := z.sets[rrKey{wname, qtype}]; ok {
			return substituteOwner(rrs, name), dnsmsg.RCodeSuccess
		}
		if rrs, ok := z.sets[rrKey{wname, dnsmsg.TypeCNAME}]; ok && qtype != dnsmsg.TypeCNAME {
			return substituteOwner(rrs, name), dnsmsg.RCodeSuccess
		}
		rest = parent
	}
	if z.DefaultA != nil && qtype == dnsmsg.TypeA {
		return []dnsmsg.Record{{
			Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, A: z.DefaultA,
		}}, dnsmsg.RCodeSuccess
	}
	for k := range z.sets {
		if k.name == name {
			return nil, dnsmsg.RCodeSuccess
		}
	}
	return nil, dnsmsg.RCodeNXDomain
}

// refResolveChain is ResolveChain over refLookup.
func refResolveChain(u *Universe, name string, qtype dnsmsg.Type, maxHops int) (Result, int) {
	hops := 0
	for cur := name; ; {
		z := u.findZone(cur)
		if z == nil {
			return Result{RCode: dnsmsg.RCodeNXDomain}, hops
		}
		rrs, rcode := refLookup(z, cur, qtype)
		if rcode != dnsmsg.RCodeSuccess || len(rrs) == 0 {
			return Result{RCode: rcode, Records: rrs}, hops
		}
		if rrs[0].Type != dnsmsg.TypeCNAME || qtype == dnsmsg.TypeCNAME {
			return Result{RCode: rcode, Records: rrs}, hops
		}
		if hops++; hops > maxHops {
			return Result{RCode: dnsmsg.RCodeServFail}, hops
		}
		cur = rrs[0].Target
	}
}

// typeCAA lies beyond the zone's type mask, exercising its fallback.
const typeCAA dnsmsg.Type = 257

var lookupTypes = []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA, dnsmsg.TypeCNAME, dnsmsg.TypeTXT, dnsmsg.TypeMX, dnsmsg.TypeSOA, typeCAA, 30, 31}

// randomZoneWorld builds a universe of zones with wildcards at several
// depths, CNAME chains (within and across zones, some looping), DefaultA
// zones, and names that exist only under a type other than A.
func randomZoneWorld(rng *rand.Rand) (*Universe, []string) {
	u := NewUniverse()
	labels := []string{"www", "mail", "a", "b", "edge", "x"}
	var names []string
	const zones = 6
	origin := func(i int) string { return fmt.Sprintf("zone%d.test", i) }
	for i := 0; i < zones; i++ {
		o := origin(i)
		z := NewZone(o)
		ip := net.IPv4(192, 0, 2, byte(i))
		if rng.Intn(3) == 0 {
			z.DefaultA = ip
		}
		owner := func() string {
			name := o
			for d := rng.Intn(3); d >= 0; d-- {
				name = labels[rng.Intn(len(labels))] + "." + name
			}
			return name
		}
		for j := rng.Intn(12); j > 0; j-- {
			name := owner()
			if rng.Intn(4) == 0 {
				// Wildcard owner at the apex or deeper.
				name = "*." + strings.SplitN(name, ".", 2)[1]
			}
			switch rng.Intn(6) {
			case 0:
				z.AddA(name, ip)
			case 1:
				z.AddAAAA(name, net.ParseIP("2001:db8::1"))
			case 2:
				target := owner()
				if rng.Intn(2) == 0 {
					target = "www." + origin(rng.Intn(zones))
				}
				z.AddCNAME(name, target)
			case 3:
				z.Add(dnsmsg.Record{Name: name, Type: dnsmsg.TypeTXT, TTL: 60})
			case 4:
				z.Add(dnsmsg.Record{Name: name, Type: dnsmsg.TypeMX, TTL: 60})
			default:
				if rng.Intn(3) == 0 {
					z.Add(dnsmsg.Record{Name: name, Type: typeCAA, TTL: 60})
				} else {
					z.AddA(name, ip)
				}
			}
			names = append(names, name, "child."+name, strings.TrimPrefix(name, "*."))
		}
		names = append(names, o, "www."+o, "nx."+o, "deep.nx."+o, "not"+o)
		u.AddZone(z)
	}
	names = append(names, "other.example", "zone1.test.evil")
	return u, names
}

func TestZoneLookupMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u, names := randomZoneWorld(rng)
		for _, name := range names {
			for _, q := range []string{name, strings.ToUpper(name) + "."} {
				for _, qt := range lookupTypes {
					for _, z := range u.zones {
						got, grc := z.Lookup(q, qt)
						want, wrc := refLookup(z, q, qt)
						if grc != wrc || !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d zone %s Lookup(%q, %v) = %v %v, reference %v %v", seed, z.Origin, q, qt, got, grc, want, wrc)
						}
					}
					got, gh := u.ResolveChain(q, qt, 3)
					want, wh := refResolveChain(u, q, qt, 3)
					if gh != wh || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d ResolveChain(%q, %v) = %v %d, reference %v %d", seed, q, qt, got, gh, want, wh)
					}
				}
			}
		}
	}
}

func TestUniverseZoneNormalizesOrigin(t *testing.T) {
	u := NewUniverse()
	z := NewZone("Example.com.")
	u.AddZone(z)
	for _, origin := range []string{"example.com", "example.com.", "EXAMPLE.Com."} {
		if got := u.Zone(origin); got != z {
			t.Errorf("Zone(%q) = %v, want the example.com zone", origin, got)
		}
	}
	if u.Zone("www.example.com") != nil {
		t.Error("Zone matched a name below the origin")
	}
}
