package ctrise_test

import (
	"reflect"
	"testing"
	"time"

	"ctrise/internal/ecosystem"
	"ctrise/internal/scanner"
	"ctrise/internal/sct"
	"ctrise/internal/tlsmon"
)

// replayParallelisms are the worker counts every generation pipeline is
// checked at: the forced-sequential path, a typical pool, and a count
// that does not divide any chunk size evenly.
var replayParallelisms = []int{1, 4, 13}

// connRecord is a Connection deep-copied out of the generator's reused
// scratch, reduced to its public fields for comparison.
type connRecord struct {
	Time              time.Time
	ServerName        string
	ClientSupportsSCT bool
	CertLogs          []string
	TLSLogs           []string
	OCSPLogs          []string
}

// TestGenerateParallelEquivalence proves the Figure 2 traffic replay
// emits the identical connection stream — every field of every
// connection, in order — at any parallelism.
func TestGenerateParallelEquivalence(t *testing.T) {
	capture := func(p int) []connRecord {
		var out []connRecord
		tlsmon.Generate(tlsmon.GenConfig{
			Seed:        7,
			ConnsPerDay: 60,
			Start:       ecosystem.Date(2017, 5, 1),
			End:         ecosystem.Date(2017, 8, 15),
			BurstDays:   4,
			Parallelism: p,
		}, func(c *tlsmon.Connection) {
			out = append(out, connRecord{
				Time:              c.Time,
				ServerName:        c.ServerName,
				ClientSupportsSCT: c.ClientSupportsSCT,
				CertLogs:          append([]string(nil), c.CertLogs...),
				TLSLogs:           append([]string(nil), c.TLSLogs...),
				OCSPLogs:          append([]string(nil), c.OCSPLogs...),
			})
		})
		return out
	}
	want := capture(replayParallelisms[0])
	if len(want) == 0 {
		t.Fatal("empty stream")
	}
	// The stream must be day-ordered (the ordered merge's contract).
	for i := 1; i < len(want); i++ {
		if d, prev := want[i].Time.Truncate(24*time.Hour), want[i-1].Time.Truncate(24*time.Hour); d.Before(prev) {
			t.Fatalf("stream regresses at %d: %v after %v", i, d, prev)
		}
	}
	for _, p := range replayParallelisms[1:] {
		got := capture(p)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d stream differs (len %d vs %d)", p, len(got), len(want))
		}
	}
	// Multi-log connections carry two distinct logs (the drawLogs retry
	// semantics): no channel may list the same log twice.
	two := 0
	for _, c := range want {
		for _, logs := range [][]string{c.CertLogs, c.TLSLogs, c.OCSPLogs} {
			if len(logs) == 2 {
				two++
				if logs[0] == logs[1] {
					t.Fatalf("duplicate log in channel: %v", logs)
				}
			}
		}
	}
	if two == 0 {
		t.Fatal("no two-log connections generated")
	}
}

// TestRunTimelineParallelEquivalence proves the staged/pipelined
// issuance replay commits identical log contents — per-log entry
// counts, tree root hashes, and the full per-day STH trajectory (size
// and root at every day boundary, in day order) — at any parallelism.
// The per-day trajectory is the strong form: it proves not only that
// the final trees agree but that every day's sequenced batch was
// identical, i.e. the pipeline's day overlap and the sequencer's
// canonical batch order never move an entry across an STH boundary.
func TestRunTimelineParallelEquivalence(t *testing.T) {
	type sthState struct {
		Size uint64
		Root [32]byte
	}
	build := func(p int) (map[string][]sthState, []time.Time) {
		w, err := ecosystem.New(ecosystem.Config{
			Seed:          42,
			Scale:         1e-4,
			TimelineStart: ecosystem.Date(2018, 2, 20),
			TimelineEnd:   ecosystem.Date(2018, 4, 10),
			NumDomains:    1500,
			Parallelism:   p,
		})
		if err != nil {
			t.Fatal(err)
		}
		var days []time.Time
		trajectory := make(map[string][]sthState, len(w.Logs))
		if err := w.RunTimeline(func(d time.Time) {
			days = append(days, d)
			for _, name := range w.LogNames {
				sth := w.Logs[name].STH()
				trajectory[name] = append(trajectory[name], sthState{
					Size: sth.TreeHead.TreeSize,
					Root: sth.TreeHead.RootHash,
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		for _, name := range w.LogNames {
			if w.Logs[name].PendingCount() != 0 {
				t.Fatalf("parallelism %d: %s left entries staged after the replay", p, name)
			}
		}
		return trajectory, days
	}
	wantTraj, wantDays := build(replayParallelisms[0])
	var total uint64
	for _, states := range wantTraj {
		total += states[len(states)-1].Size
	}
	if total == 0 {
		t.Fatal("sequential replay produced no entries")
	}
	if len(wantDays) != 49 {
		t.Fatalf("days = %d", len(wantDays))
	}
	for _, p := range replayParallelisms[1:] {
		gotTraj, gotDays := build(p)
		if !reflect.DeepEqual(wantDays, gotDays) {
			t.Fatalf("parallelism %d day ordering differs", p)
		}
		for name, want := range wantTraj {
			got := gotTraj[name]
			if len(got) != len(want) {
				t.Fatalf("parallelism %d: %s has %d STHs, want %d", p, name, len(got), len(want))
			}
			for di := range want {
				if want[di].Size != got[di].Size {
					t.Fatalf("parallelism %d: %s day %s has %d entries, want %d",
						p, name, wantDays[di].Format("2006-01-02"), got[di].Size, want[di].Size)
				}
				if want[di].Root != got[di].Root {
					t.Fatalf("parallelism %d: %s root hash differs at day %s (size %d)",
						p, name, wantDays[di].Format("2006-01-02"), want[di].Size)
				}
			}
		}
	}
}

// TestScannerParallelEquivalence proves the Section 3.3 sweep — site
// order, scan statistics, per-log attribution, and the Section 3.4
// findings — is identical at any parallelism.
func TestScannerParallelEquivalence(t *testing.T) {
	w, err := ecosystem.New(ecosystem.Config{Seed: 5, NumDomains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Set(ecosystem.Date(2018, 5, 18))
	names := make(map[sct.LogID]string, len(w.Logs))
	for name, l := range w.Logs {
		names[l.LogID()] = name
	}

	type sweep struct {
		domains []string
		stats   scanner.ScanStats
		byLog   map[string]uint64
		invalid []scanner.InvalidCert
	}
	run := func(p int) sweep {
		sites, err := scanner.BuildPopulation(w, scanner.PopConfig{Seed: 11, NumSites: 2500, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		st, err := scanner.Scan(sites, names, p)
		if err != nil {
			t.Fatal(err)
		}
		invalid, err := scanner.DetectInvalidSCTs(sites, w.Verifiers(), p)
		if err != nil {
			t.Fatal(err)
		}
		out := sweep{stats: *st, byLog: st.CertsByLog.Snapshot(), invalid: invalid}
		out.stats.CertsByLog = nil
		for _, s := range sites {
			out.domains = append(out.domains, s.Domain)
		}
		return out
	}
	want := run(replayParallelisms[0])
	if want.stats.TotalCerts == 0 || len(want.invalid) != 16 {
		t.Fatalf("sweep shape: %d certs, %d invalid", want.stats.TotalCerts, len(want.invalid))
	}
	for _, p := range replayParallelisms[1:] {
		got := run(p)
		if !reflect.DeepEqual(want.domains, got.domains) {
			t.Fatalf("parallelism %d site order differs", p)
		}
		if want.stats != got.stats {
			t.Fatalf("parallelism %d stats differ:\n want %+v\n got  %+v", p, want.stats, got.stats)
		}
		if !reflect.DeepEqual(want.byLog, got.byLog) {
			t.Fatalf("parallelism %d per-log attribution differs", p)
		}
		if !reflect.DeepEqual(want.invalid, got.invalid) {
			t.Fatalf("parallelism %d findings differ", p)
		}
	}
}
