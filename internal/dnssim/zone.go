// Package dnssim provides the DNS substrate for the paper's experiments:
// an authoritative zone store with wildcard and default-answer semantics,
// a UDP authoritative server with a query-observation hook (the honeypot's
// measurement point), a UDP client, and an in-memory "Universe" resolver
// that stands in for the global DNS during the bulk subdomain-enumeration
// experiment of Section 4.3 (the paper used massdns against live DNS; we
// resolve against the simulated Internet at full fidelity: NXDOMAIN,
// CNAME chains, wildcard zones that answer anything, and misconfigured
// servers returning addresses outside the routing table).
package dnssim

import (
	"math/bits"
	"net"
	"strings"
	"sync"

	"ctrise/internal/dnsmsg"
)

// rrKey identifies a record set within a zone.
type rrKey struct {
	name  string
	qtype dnsmsg.Type
}

// Zone holds authoritative data for one origin (e.g. "example.com").
type Zone struct {
	// Origin is the zone apex.
	Origin string
	// DefaultA, if set, makes the zone answer every in-zone name with this
	// address — the "default A record" zones Section 4.3's pseudorandom
	// control names are designed to detect.
	DefaultA net.IP

	mu   sync.RWMutex
	sets map[rrKey][]dnsmsg.Record
	// types has bit t set when the zone holds a record set of type t < 31;
	// bit 31 stands for every larger type. It bounds the no-data probe.
	// (32 bits keep a Zone in its allocation size class.)
	types uint32
	// wildcards is set once the zone holds a "*." owner; zones without
	// one skip the wildcard walk.
	wildcards bool
}

// otherTypes is the types bit for every type from 31 up.
const otherTypes = 31

// typeBit is the bit of the types mask that records qtype.
func typeBit(qtype dnsmsg.Type) uint32 {
	if qtype >= otherTypes {
		return 1 << otherTypes
	}
	return 1 << qtype
}

// NewZone creates an empty zone with an SOA record.
func NewZone(origin string) *Zone {
	z := &Zone{
		Origin: strings.ToLower(strings.TrimSuffix(origin, ".")),
		sets:   make(map[rrKey][]dnsmsg.Record),
	}
	z.Add(dnsmsg.Record{
		Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 3600,
		SOA: dnsmsg.SOAData{
			MName: "ns1." + z.Origin, RName: "hostmaster." + z.Origin,
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		},
	})
	return z
}

// Add inserts a record.
func (z *Zone) Add(rr dnsmsg.Record) {
	rr.Name = strings.ToLower(strings.TrimSuffix(rr.Name, "."))
	if rr.Class == 0 {
		rr.Class = dnsmsg.ClassIN
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{rr.Name, rr.Type}
	z.sets[k] = append(z.sets[k], rr)
	z.types |= typeBit(rr.Type)
	if strings.HasPrefix(rr.Name, "*.") {
		z.wildcards = true
	}
}

// AddA is a convenience for A records.
func (z *Zone) AddA(name string, ip net.IP) {
	z.Add(dnsmsg.Record{Name: name, Type: dnsmsg.TypeA, TTL: 300, A: ip})
}

// AddAAAA is a convenience for AAAA records.
func (z *Zone) AddAAAA(name string, ip net.IP) {
	z.Add(dnsmsg.Record{Name: name, Type: dnsmsg.TypeAAAA, TTL: 300, AAAA: ip})
}

// AddCNAME is a convenience for CNAME records.
func (z *Zone) AddCNAME(name, target string) {
	z.Add(dnsmsg.Record{Name: name, Type: dnsmsg.TypeCNAME, TTL: 300, Target: target})
}

// Contains reports whether name falls inside the zone.
func (z *Zone) Contains(name string) bool {
	return z.contains(strings.ToLower(strings.TrimSuffix(name, ".")))
}

// contains is Contains for a normalized name.
func (z *Zone) contains(name string) bool {
	o := z.Origin
	if len(name) == len(o) {
		return name == o
	}
	return len(name) > len(o) && name[len(name)-len(o)-1] == '.' && strings.HasSuffix(name, o)
}

// Lookup resolves (name, qtype) within the zone, applying, in order:
// exact match; CNAME at the name (returned so the caller can chase it);
// wildcard (*.parent) match; DefaultA synthesis; otherwise NXDOMAIN (or
// NOERROR/no-data when the name exists with a different type).
func (z *Zone) Lookup(name string, qtype dnsmsg.Type) ([]dnsmsg.Record, dnsmsg.RCode) {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if !z.contains(name) {
		return nil, dnsmsg.RCodeRefused
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	if rrs, ok := z.sets[rrKey{name, qtype}]; ok {
		return append([]dnsmsg.Record(nil), rrs...), dnsmsg.RCodeSuccess
	}
	// CNAME at the owner name answers any type except the CNAME itself.
	if rrs, ok := z.sets[rrKey{name, dnsmsg.TypeCNAME}]; ok && qtype != dnsmsg.TypeCNAME {
		return append([]dnsmsg.Record(nil), rrs...), dnsmsg.RCodeSuccess
	}
	// Wildcard: replace the leftmost label with "*" at each ancestor.
	for rest := name; z.wildcards && rest != z.Origin && rest != ""; {
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
	// Default-A zones answer any A query in-zone.
	if z.DefaultA != nil && qtype == dnsmsg.TypeA {
		return []dnsmsg.Record{{
			Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, A: z.DefaultA,
		}}, dnsmsg.RCodeSuccess
	}
	// Name exists with other types -> NOERROR, empty answer.
	if z.hasOwner(name) {
		return nil, dnsmsg.RCodeSuccess
	}
	return nil, dnsmsg.RCodeNXDomain
}

// hasOwner reports whether the zone holds any record set owned by name,
// probing once per type the zone holds. The caller holds z.mu.
func (z *Zone) hasOwner(name string) bool {
	if z.types&typeBit(otherTypes) != 0 {
		// A type beyond the mask is held: fall back to a full scan.
		for k := range z.sets {
			if k.name == name {
				return true
			}
		}
		return false
	}
	for t := z.types; t != 0; t &= t - 1 {
		if _, ok := z.sets[rrKey{name, dnsmsg.Type(bits.TrailingZeros32(t))}]; ok {
			return true
		}
	}
	return false
}

func substituteOwner(rrs []dnsmsg.Record, owner string) []dnsmsg.Record {
	out := make([]dnsmsg.Record, len(rrs))
	for i, rr := range rrs {
		rr.Name = owner
		out[i] = rr
	}
	return out
}
