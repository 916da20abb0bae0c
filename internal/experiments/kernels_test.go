package experiments

import (
	"math/rand"
	"net"
	"reflect"
	"testing"

	"ctrise/internal/dnsmsg"
	"ctrise/internal/dnssim"
	"ctrise/internal/ecosystem"
	"ctrise/internal/phish"
	"ctrise/internal/subenum"
)

// withParallelism returns a suite sharing shared's built world but
// running its analyses at the given parallelism.
func withParallelism(t *testing.T, p int) *Suite {
	t.Helper()
	w, h, err := shared.World()
	if err != nil {
		t.Fatal(err)
	}
	opts := shared.opts
	opts.Parallelism = p
	return &Suite{opts: opts, world: w, harvest: h}
}

// TestTable3ParallelismInvariant pins Table 3 to the scan it replaced:
// the harvest copied into a map, the injected names added, and every
// name checked on one goroutine. The in-place scan must give the same
// report and corpus size at every parallelism.
func TestTable3ParallelismInvariant(t *testing.T) {
	_, h, err := shared.World()
	if err != nil {
		t.Fatal(err)
	}
	corpus := h.NameSet.Snapshot()
	truth := phish.Generate(phish.GenConfig{Seed: shared.opts.Seed + 55, Scale: 0.01 * shared.opts.Scale}, corpus)
	all := make([]string, 0, len(corpus))
	for name := range corpus {
		all = append(all, name)
	}
	det := &phish.Detector{Targets: append(phish.DefaultTargets(), phish.GovTarget()), PSL: phish.NewDetector().PSL}
	want := &Table3Result{Report: det.Scan(nil, all, 1), Generated: truth, CorpusSize: len(corpus)}
	if want.Report.Total == 0 {
		t.Fatal("reference scan found nothing")
	}
	for _, p := range []int{1, 2, 13} {
		got, err := withParallelism(t, p).Table3()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: Table 3 differs from the reference (corpus %d vs %d, total %d vs %d)",
				p, got.CorpusSize, want.CorpusSize, got.Report.Total, want.Report.Total)
		}
		if got.RenderTable3() != want.RenderTable3() {
			t.Errorf("parallelism %d: rendered Table 3 differs", p)
		}
	}
}

// refBuildDNSWorld is the serial world builder buildDNSWorld replaced,
// drawing and building each zone in one pass.
func refBuildDNSWorld(rng *rand.Rand, w *ecosystem.World, census *subenum.Census, minCount uint64) (*dnssim.Universe, subenum.SonarDB) {
	universe := dnssim.NewUniverse()
	sonar := make(subenum.SonarDB)
	var labels []string
	for _, kv := range census.Labels.TopK(census.Labels.Len()) {
		if kv.Count < minCount {
			break
		}
		labels = append(labels, kv.Key)
	}
	for i, d := range w.Domains {
		z := dnssim.NewZone(d.Name)
		ip := net.IPv4(100, 64+byte(i>>16), byte(i>>8), byte(i))
		inSonar := rng.Float64() < 0.82
		addName := func(fqdn string) {
			if rng.Float64() < pCNAMEChain {
				target := "edge." + d.Name
				z.AddCNAME(fqdn, target)
				z.AddA(target, ip)
			} else {
				z.AddA(fqdn, ip)
			}
			if inSonar && rng.Float64() < 0.04 {
				sonar[fqdn] = struct{}{}
			}
		}
		switch {
		case rng.Float64() < pWildcardZone:
			z.DefaultA = ip
		case rng.Float64() < pMisconfigured/(1-pWildcardZone):
			z.DefaultA = net.IPv4(8, 8, byte(i>>8), byte(i))
		default:
			z.AddA(d.Name, ip)
			for _, label := range labels {
				p, ok := labelExistence[label]
				if !ok {
					p = defaultLabelExistence
				}
				if rng.Float64() < p {
					addName(label + "." + d.Name)
				}
			}
		}
		if inSonar {
			sonar[d.Name] = struct{}{}
			if rng.Float64() < 0.1 {
				sonar["www."+d.Name] = struct{}{}
			}
		}
		universe.AddZone(z)
	}
	return universe, sonar
}

// TestBuildDNSWorldMatchesSerialBuilder checks that the planned,
// parallel world builder produces the serial builder's Sonar snapshot and
// answers every name the builder can create identically, at parallelism
// 1, 2 and 13.
func TestBuildDNSWorldMatchesSerialBuilder(t *testing.T) {
	w, h, err := shared.World()
	if err != nil {
		t.Fatal(err)
	}
	census := subenum.RunCensus(h.NameSet, w.PSL, 0)
	minCount := census.Labels.Get("www") / 600
	if minCount < 3 {
		minCount = 3
	}
	const seed = 2018 + 44
	refU, refSonar := refBuildDNSWorld(rand.New(rand.NewSource(seed)), w, census, minCount)
	var queries []string
	for _, kv := range census.Labels.TopK(census.Labels.Len()) {
		if kv.Count < minCount {
			break
		}
		queries = append(queries, kv.Key)
	}
	queries = append(queries, "edge", "zz-control-name")
	for _, p := range []int{1, 2, 13} {
		u, sonar := buildDNSWorld(rand.New(rand.NewSource(seed)), w, census, minCount, p)
		if !reflect.DeepEqual(sonar, refSonar) {
			t.Fatalf("parallelism %d: Sonar snapshot differs (%d vs %d names)", p, len(sonar), len(refSonar))
		}
		if u.ZoneCount() != refU.ZoneCount() {
			t.Fatalf("parallelism %d: %d zones, serial builder %d", p, u.ZoneCount(), refU.ZoneCount())
		}
		for _, d := range w.Domains {
			z, rz := u.Zone(d.Name), refU.Zone(d.Name)
			if z == nil || !z.DefaultA.Equal(rz.DefaultA) {
				t.Fatalf("parallelism %d: zone %s differs", p, d.Name)
			}
			names := []string{d.Name}
			for _, l := range queries {
				names = append(names, l+"."+d.Name)
			}
			for _, name := range names {
				for _, qt := range []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeCNAME, dnsmsg.TypeAAAA} {
					got, grc := z.Lookup(name, qt)
					want, wrc := rz.Lookup(name, qt)
					if grc != wrc || !reflect.DeepEqual(got, want) {
						t.Fatalf("parallelism %d: Lookup(%s, %v) = %v %v, serial builder %v %v", p, name, qt, got, grc, want, wrc)
					}
				}
			}
		}
	}
}
