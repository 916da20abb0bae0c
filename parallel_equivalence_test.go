package ctrise_test

import (
	"reflect"
	"testing"

	"ctrise/internal/ecosystem"
	"ctrise/internal/psl"
	"ctrise/internal/subenum"
)

// The concurrent sharded harvest-and-analysis pipeline must be invisible
// in the output: harvesting and parsing the same world with parallelism 1
// and with parallelism 8 and 13 yields identical totals, day series,
// heatmaps, name sets, and Table 2 rows. Running this test under -race
// also exercises the concurrent crawl workers, the sharded FQDN-dedup
// set, and the census shard workers.
func TestParallelPipelineEquivalence(t *testing.T) {
	w, err := ecosystem.New(ecosystem.Config{
		Seed:          42,
		Scale:         1e-4,
		TimelineStart: ecosystem.Date(2018, 2, 1),
		TimelineEnd:   ecosystem.Date(2018, 4, 20),
		NumDomains:    2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	heatFrom, heatTo := ecosystem.Date(2018, 4, 1), ecosystem.Date(2018, 5, 1)
	list := psl.Default()

	seq, err := w.HarvestLogs(heatFrom, heatTo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalPrecerts == 0 {
		t.Fatal("sequential harvest saw no precerts")
	}
	seqCensus := subenum.RunCensus(seq.NameSet, list, 1)
	if seqCensus.ValidFQDNs == 0 {
		t.Fatal("census saw no valid FQDNs")
	}
	for _, p := range []int{8, 13} {
		par, err := w.HarvestLogs(heatFrom, heatTo, p)
		if err != nil {
			t.Fatal(err)
		}
		// Totals.
		if seq.TotalPrecerts != par.TotalPrecerts || seq.TotalFinal != par.TotalFinal {
			t.Fatalf("parallelism %d: totals differ: seq=%d/%d par=%d/%d", p,
				seq.TotalPrecerts, seq.TotalFinal, par.TotalPrecerts, par.TotalFinal)
		}
		// Name sets.
		if len(seq.Names()) == 0 || !reflect.DeepEqual(seq.Names(), par.Names()) {
			t.Fatalf("parallelism %d: name sets differ: seq=%d par=%d", p, len(seq.Names()), len(par.Names()))
		}
		// Day series, cell by cell.
		seqDays, seqOrgs, seqTable := seq.PrecertsByOrgDay.Table()
		parDays, parOrgs, parTable := par.PrecertsByOrgDay.Table()
		if !reflect.DeepEqual(seqDays, parDays) || !reflect.DeepEqual(seqOrgs, parOrgs) {
			t.Fatalf("parallelism %d: series axes differ", p)
		}
		if !reflect.DeepEqual(seqTable, parTable) {
			t.Fatalf("parallelism %d: day series values differ", p)
		}
		// Figure aggregations built on the series.
		d1, c1 := seq.CumulativeByOrg()
		d2, c2 := par.CumulativeByOrg()
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("parallelism %d: cumulative series differ", p)
		}
		_, s1 := seq.DailyShareByOrg()
		_, s2 := par.DailyShareByOrg()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("parallelism %d: daily shares differ", p)
		}
		// Heatmap counters (Figure 1c).
		if len(seq.PrecertsByOrgLog) == 0 || len(seq.PrecertsByOrgLog) != len(par.PrecertsByOrgLog) {
			t.Fatalf("parallelism %d: heatmap org sets differ: %d vs %d", p, len(seq.PrecertsByOrgLog), len(par.PrecertsByOrgLog))
		}
		for org, sc := range seq.PrecertsByOrgLog {
			pc := par.PrecertsByOrgLog[org]
			if pc == nil || !reflect.DeepEqual(sc.Snapshot(), pc.Snapshot()) {
				t.Fatalf("parallelism %d: heatmap differs for org %q", p, org)
			}
		}

		// Census over the harvested corpus: Table 2 and friends.
		parCensus := subenum.RunCensus(par.NameSet, list, p)
		if seqCensus.ValidFQDNs != parCensus.ValidFQDNs || seqCensus.Rejected != parCensus.Rejected {
			t.Fatalf("parallelism %d: census totals differ", p)
		}
		if !reflect.DeepEqual(seqCensus.Labels.Snapshot(), parCensus.Labels.Snapshot()) {
			t.Fatalf("parallelism %d: census label counts differ", p)
		}
		if !reflect.DeepEqual(seqCensus.DomainsBySuffix, parCensus.DomainsBySuffix) {
			t.Fatalf("parallelism %d: census domain lists differ", p)
		}
		if !reflect.DeepEqual(seqCensus.Table2(20), parCensus.Table2(20)) {
			t.Fatalf("parallelism %d: Table 2 rows differ", p)
		}
	}
}
