// Package asn models the autonomous-system layer the paper's analyses
// need: an AS registry with operator metadata and scanning-hygiene
// attributes, IP-prefix to AS mapping, and the border-router routing-table
// membership test Section 4.3 uses to discard answers pointing at
// unrouted space ("we disregard IP addresses not part of our border
// router's routing table").
package asn

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
)

// Hygiene captures the scanning best practices of Section 6.2: informative
// rDNS names, project websites, and whois/abuse contacts. The paper notes
// no inbound scanner followed any of them.
type Hygiene struct {
	InformativeRDNS bool
	Website         bool
	AbuseContact    bool
}

// Clean reports whether all hygiene practices are followed.
func (h Hygiene) Clean() bool { return h.InformativeRDNS && h.Website && h.AbuseContact }

// AS describes an autonomous system.
type AS struct {
	Number  uint32
	Name    string
	Country string
	Hygiene Hygiene
	// IgnoresAbuse marks networks known to drop abuse reports (Quasi
	// Networks in the paper).
	IgnoresAbuse bool
}

// String renders "ASnnnn (Name)".
func (a *AS) String() string { return fmt.Sprintf("AS%d (%s)", a.Number, a.Name) }

// Registry maps IP prefixes to ASes and answers routing-table queries.
//
// Announced prefixes live in one exact-match map per distinct prefix
// length, keyed by the masked network number. Lookup probes the maps
// longest length first, so a query costs one masked map probe per
// length (a handful) instead of a scan over every prefix. Lengths
// order as net.IPMask.Size reports them, so an IPv4-mapped IPv6 prefix
// such as ::ffff:10.0.0.0/104 ranks as a /104 while matching IPv4
// addresses as a /8, exactly as a net.IPNet.Contains scan in that order
// would. Within one length the first announcement of a prefix wins.
type Registry struct {
	mu     sync.RWMutex
	ases   map[uint32]*AS
	tables []routeTable // by prefix length, longest first
}

// routeTable holds the announced prefixes of one length and family.
type routeTable struct {
	ones   int  // prefix length as announced (net.IPMask.Size)
	v4     bool // the prefixes match IPv4 addresses (IPv4-mapped included)
	mask   addrKey
	routes map[addrKey]uint32
}

// addrKey is an address as two big-endian words; an IPv4 address sits
// in the low 32 bits of lo.
type addrKey struct{ hi, lo uint64 }

func (k addrKey) and(m addrKey) addrKey { return addrKey{k.hi & m.hi, k.lo & m.lo} }

// wordsOf packs a 4- or 16-byte address or mask into an addrKey.
func wordsOf(b []byte) addrKey {
	if len(b) == net.IPv4len {
		return addrKey{lo: uint64(binary.BigEndian.Uint32(b))}
	}
	return addrKey{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// keyOf converts an address to its key and family. ok is false for a
// byte slice that is neither an IPv4 nor an IPv6 address.
func keyOf(ip net.IP) (k addrKey, v4, ok bool) {
	if ip4 := ip.To4(); ip4 != nil {
		return wordsOf(ip4), true, true
	}
	if len(ip) != net.IPv6len {
		return addrKey{}, false, false
	}
	return wordsOf(ip), false, true
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ases: make(map[uint32]*AS)}
}

// AddAS registers an AS (idempotent by number).
func (r *Registry) AddAS(a AS) *AS {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.ases[a.Number]; ok {
		return existing
	}
	cp := a
	r.ases[a.Number] = &cp
	return &cp
}

// AS returns the AS with the given number, or nil.
func (r *Registry) AS(number uint32) *AS {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ases[number]
}

// Announce maps a CIDR prefix to an AS number.
func (r *Registry) Announce(cidr string, asn uint32) error {
	_, ipnet, err := net.ParseCIDR(cidr)
	if err != nil {
		return fmt.Errorf("asn: bad prefix %q: %w", cidr, err)
	}
	ones, _ := ipnet.Mask.Size()
	// The network number and mask net.IPNet.Contains compares against:
	// an IPv4-mapped network matches IPv4 addresses under the mask's low
	// 32 bits.
	network, mask := ipnet.IP, ipnet.Mask
	if ip4 := network.To4(); ip4 != nil {
		network = ip4
		if len(mask) == net.IPv6len {
			mask = mask[12:]
		}
	}
	v4 := len(network) == net.IPv4len
	key := wordsOf(network).and(wordsOf(mask))
	r.mu.Lock()
	defer r.mu.Unlock()
	i := 0
	for i < len(r.tables) && (r.tables[i].ones > ones || r.tables[i].ones == ones && r.tables[i].v4 != v4) {
		i++
	}
	if i == len(r.tables) || r.tables[i].ones != ones {
		r.tables = slices.Insert(r.tables, i, routeTable{ones: ones, v4: v4, mask: wordsOf(mask), routes: make(map[addrKey]uint32)})
	}
	if _, dup := r.tables[i].routes[key]; !dup {
		r.tables[i].routes[key] = asn
	}
	return nil
}

// Lookup returns the origin AS for ip, if any prefix covers it.
func (r *Registry) Lookup(ip net.IP) (*AS, bool) {
	key, v4, ok := keyOf(ip)
	if !ok {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.tables {
		t := &r.tables[i]
		if t.v4 != v4 {
			continue
		}
		if asn, ok := t.routes[key.and(t.mask)]; ok {
			return r.ases[asn], true
		}
	}
	return nil, false
}

// InRoutingTable reports whether any announced prefix covers ip — the
// paper's filter against misconfigured DNS servers returning junk
// addresses.
func (r *Registry) InRoutingTable(ip net.IP) bool {
	_, ok := r.Lookup(ip)
	return ok
}

// ASCount returns the number of registered ASes.
func (r *Registry) ASCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ases)
}

// Well-known AS numbers from the paper's Table 4 and Section 6.2.
const (
	ASGoogle       = 15169
	ASOneAndOne    = 8560
	ASAmazon       = 16509
	ASAmazonAES    = 14618
	ASDigitalOcean = 14061
	ASDeteque      = 54054
	ASOpenDNS      = 36692
	ASPetersburg   = 44050
	ASHetzner      = 24940
	ASOnlineSAS    = 12876
	ASACN          = 19397
	ASQuasi        = 29073
)

// DefaultRegistry builds a registry with the ASes the paper names,
// announced over TEST-NET and documentation prefixes plus synthetic
// 10.0.0.0/8 carve-outs, and a pool of anonymous "batch scanner" ASes
// (the 76 ASes that queried one or two honeypot domains).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	clean := Hygiene{} // none of the observed scanners were hygienic
	known := []struct {
		as     AS
		prefix string
	}{
		{AS{Number: ASGoogle, Name: "Google", Country: "US", Hygiene: clean}, "10.15.0.0/16"},
		{AS{Number: ASOneAndOne, Name: "1&1", Country: "DE", Hygiene: clean}, "10.85.0.0/16"},
		{AS{Number: ASAmazon, Name: "Amazon", Country: "US", Hygiene: clean}, "10.16.0.0/16"},
		{AS{Number: ASAmazonAES, Name: "Amazon AES", Country: "US", Hygiene: clean}, "10.17.0.0/16"},
		{AS{Number: ASDigitalOcean, Name: "DigitalOcean", Country: "US", Hygiene: clean}, "10.14.0.0/16"},
		{AS{Number: ASDeteque, Name: "Deteque (Spamhaus)", Country: "US", Hygiene: clean}, "10.54.0.0/16"},
		{AS{Number: ASOpenDNS, Name: "OpenDNS", Country: "US", Hygiene: clean}, "10.36.0.0/16"},
		{AS{Number: ASPetersburg, Name: "Petersburg Internet", Country: "RU", Hygiene: clean}, "10.44.0.0/16"},
		{AS{Number: ASHetzner, Name: "Hetzner", Country: "DE", Hygiene: clean}, "10.24.0.0/16"},
		{AS{Number: ASOnlineSAS, Name: "Online SAS", Country: "FR", Hygiene: clean}, "10.12.0.0/16"},
		{AS{Number: ASACN, Name: "ACN", Country: "US", Hygiene: clean}, "10.19.0.0/16"},
		{AS{Number: ASQuasi, Name: "Quasi Networks", Country: "SC", Hygiene: clean, IgnoresAbuse: true}, "10.29.0.0/16"},
	}
	for _, k := range known {
		r.AddAS(k.as)
		if err := r.Announce(k.prefix, k.as.Number); err != nil {
			panic(err)
		}
	}
	// Batch-scanner tail: 76 anonymous ASes (Section 6.2).
	for i := 0; i < 76; i++ {
		num := uint32(60000 + i)
		r.AddAS(AS{Number: num, Name: fmt.Sprintf("batch-scanner-%d", i)})
		if err := r.Announce(fmt.Sprintf("10.1%02d.0.0/16", i), num); err != nil {
			panic(err)
		}
	}
	// Routed "site" space for the synthetic Internet's web servers.
	siteAS := r.AddAS(AS{Number: 64500, Name: "Synthetic Hosting"})
	if err := r.Announce("192.0.2.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("198.51.100.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("203.0.113.0/24", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("100.64.0.0/10", siteAS.Number); err != nil {
		panic(err)
	}
	if err := r.Announce("2001:db8::/32", siteAS.Number); err != nil {
		panic(err)
	}
	return r
}
