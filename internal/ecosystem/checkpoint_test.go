package ecosystem

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/sct"
)

// checkpointWorld builds a small populated world for harvest tests.
func checkpointWorld(t *testing.T) *World {
	t.Helper()
	w, err := New(Config{
		Seed:          31,
		Scale:         1e-4,
		TimelineStart: Date(2018, 3, 20),
		TimelineEnd:   Date(2018, 4, 6),
		NumDomains:    400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// harvestFingerprint reduces a harvest to comparable form.
type harvestFingerprint struct {
	TotalPrecerts uint64
	TotalFinal    uint64
	Names         int
	Series        map[string]map[string]float64
	OrgLog        map[string]map[string]uint64
}

func fingerprint(h *Harvest) harvestFingerprint {
	fp := harvestFingerprint{
		TotalPrecerts: h.TotalPrecerts,
		TotalFinal:    h.TotalFinal,
		Names:         h.NameSet.Len(),
		Series:        make(map[string]map[string]float64),
		OrgLog:        make(map[string]map[string]uint64),
	}
	_, orgs, table := h.PrecertsByOrgDay.Table()
	for _, org := range orgs {
		fp.Series[org] = table[org]
	}
	for org, c := range h.PrecertsByOrgLog {
		fp.OrgLog[org] = c.Snapshot()
	}
	return fp
}

var heatFrom, heatTo = Date(2018, 4, 1), Date(2018, 5, 1)

// TestCheckpointRoundTrip proves Checkpoint/ResumeHarvest reconstruct
// the exact harvest state and cursors.
func TestCheckpointRoundTrip(t *testing.T) {
	w := checkpointWorld(t)
	h, err := w.HarvestLogs(heatFrom, heatTo, 0)
	if err != nil {
		t.Fatal(err)
	}
	cursors := map[string]uint64{}
	for _, name := range w.LogNames {
		cursors[name] = w.Logs[name].STH().TreeHead.TreeSize
	}
	path := filepath.Join(t.TempDir(), "harvest.ckpt")
	if err := h.Checkpoint(path, cursors); err != nil {
		t.Fatal(err)
	}
	h2, cursors2, err := ResumeHarvest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cursors, cursors2) {
		t.Fatalf("cursors differ:\nwant %v\ngot  %v", cursors, cursors2)
	}
	if !reflect.DeepEqual(fingerprint(h), fingerprint(h2)) {
		t.Fatal("harvest state differs after round trip")
	}
	if !h2.HeatmapFrom.Equal(heatFrom) || !h2.HeatmapTo.Equal(heatTo) {
		t.Fatalf("heat window %v–%v", h2.HeatmapFrom, h2.HeatmapTo)
	}
	// The name corpus round-trips as a set, not just a count.
	for name := range h.Names() {
		if !h2.NameSet.Has(name) {
			t.Fatalf("name %q lost in round trip", name)
		}
	}
}

// TestCheckpointRejectsTornFile proves a truncated checkpoint (torn
// write, which WriteFileAtomic should prevent but belt meets braces) is
// rejected rather than resumed from silently short state.
func TestCheckpointRejectsTornFile(t *testing.T) {
	w := checkpointWorld(t)
	h, err := w.HarvestLogs(heatFrom, heatTo, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "harvest.ckpt")
	if err := h.Checkpoint(path, map[string]uint64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, len(data) - 9, len(data) / 2, 3} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeHarvest(path); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("cut %d: err=%v, want ErrCorrupt", cut, err)
		}
	}
}

// TestHarvestLogsResumableMatchesParallel proves the checkpointed crawl
// produces the identical harvest to the one-shot parallel crawl.
func TestHarvestLogsResumableMatchesParallel(t *testing.T) {
	w := checkpointWorld(t)
	want, err := w.HarvestLogs(heatFrom, heatTo, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "harvest.ckpt")
	got, err := w.HarvestLogsResumable(context.Background(), heatFrom, heatTo, path, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(want), fingerprint(got)) {
		t.Fatal("resumable harvest differs from parallel harvest")
	}
}

// TestResumableRefusesRolledBackLog proves a checkpoint whose cursor
// lies beyond a log's current tree size — the log rolled back, or the
// checkpoint belongs to different logs — is refused loudly instead of
// re-streaming (and double-counting) entries the checkpoint already
// folded in.
func TestResumableRefusesRolledBackLog(t *testing.T) {
	w := checkpointWorld(t)
	path := filepath.Join(t.TempDir(), "harvest.ckpt")
	h := NewHarvest(heatFrom, heatTo)
	name := w.LogNames[0]
	size := w.Logs[name].STH().TreeHead.TreeSize
	if err := h.Checkpoint(path, map[string]uint64{name: size + 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HarvestLogsResumable(context.Background(), heatFrom, heatTo, path, 400); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err=%v, want ErrCheckpointMismatch", err)
	}
}

// TestHarvestKilledAndResumedIsGapFree kills the resumable harvest at
// several points (context cancellation after N observed entries — the
// in-memory partial since the last checkpoint is discarded, exactly
// like a dead process), resumes from the checkpoint file with fresh
// state, and requires the final harvest to equal the uninterrupted one:
// no gaps, no double counting.
func TestHarvestKilledAndResumedIsGapFree(t *testing.T) {
	w := checkpointWorld(t)
	want, err := w.HarvestLogs(heatFrom, heatTo, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprint(want)

	for _, killAfter := range []int{1, 237, 1000} {
		path := filepath.Join(t.TempDir(), "harvest.ckpt")
		// Phase 1: harvest with a context that dies mid-crawl.
		ctx, cancel := context.WithCancel(context.Background())
		countCtx := &countingContext{Context: ctx, cancel: cancel, after: killAfter}
		if _, err := w.HarvestLogsResumable(countCtx, heatFrom, heatTo, path, 400); err == nil {
			t.Fatalf("killAfter=%d: harvest was not killed", killAfter)
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("killAfter=%d: err=%v", killAfter, err)
		}
		// Phase 2: a "new process" resumes from the checkpoint file (or
		// from scratch when the kill landed before the first checkpoint).
		got, err := w.HarvestLogsResumable(context.Background(), heatFrom, heatTo, path, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantFP, fingerprint(got)) {
			t.Fatalf("killAfter=%d: resumed harvest differs from uninterrupted", killAfter)
		}
	}
}

// countingContext reports itself canceled after its Err method has been
// consulted `after` times — a deterministic stand-in for kill -9 at an
// arbitrary point in the entry stream (HarvestLogsResumable checks ctx
// per entry).
type countingContext struct {
	context.Context
	cancel context.CancelFunc
	after  int
	seen   atomic.Int64
}

func (c *countingContext) Err() error {
	if int(c.seen.Add(1)) > c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRemoteHarvestResumesViaStreamEntries exercises the remote shape
// of the same contract: a ctclient.Monitor streaming a log over HTTP
// dies mid-harvest (server starts refusing), the resume index
// StreamEntries returned is checkpointed, and a fresh monitor seeded
// with NewMonitorAt finishes the harvest gap-free against a healthy
// server.
func TestRemoteHarvestResumesViaStreamEntries(t *testing.T) {
	l, err := ctlog.New(ctlog.Config{
		Name:   "remote",
		Signer: sct.NewFastSigner("checkpoint-remote-log"),
	})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 40
	for i := 0; i < entries; i++ {
		if _, err := l.AddChain([]byte{byte(i), 0x55, byte(i >> 4)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	var requests atomic.Int64
	var failing atomic.Bool
	handler := l.Handler()
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && requests.Add(1) > 2 {
			http.Error(w, "server killed", http.StatusInternalServerError)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer server.Close()

	var seen []uint64
	collect := func(e *ctlog.Entry) error {
		seen = append(seen, e.Index)
		return nil
	}

	// Phase 1: the server dies after two pages.
	failing.Store(true)
	m := ctclient.NewMonitor(ctclient.New(server.URL, nil))
	m.Batch = 7
	resume, err := m.StreamEntries(context.Background(), 0, entries-1, collect)
	if err == nil {
		t.Fatal("stream against dying server succeeded")
	}
	if resume != uint64(len(seen)) {
		t.Fatalf("resume index %d, saw %d entries", resume, len(seen))
	}
	if resume == 0 || resume >= entries {
		t.Fatalf("want a mid-stream failure, got resume=%d", resume)
	}

	// The checkpoint carries the cursor across the "restart".
	path := filepath.Join(t.TempDir(), "remote.ckpt")
	h := NewHarvest(heatFrom, heatTo)
	if err := h.Checkpoint(path, map[string]uint64{"remote": resume}); err != nil {
		t.Fatal(err)
	}
	_, cursors, err := ResumeHarvest(path)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: healthy server, fresh monitor seeded from the cursor.
	failing.Store(false)
	m2 := ctclient.NewMonitorAt(ctclient.New(server.URL, nil), cursors["remote"])
	if got := m2.NextIndex(); got != resume {
		t.Fatalf("NextIndex=%d, want %d", got, resume)
	}
	next, err := m2.StreamEntries(context.Background(), m2.NextIndex(), entries-1, collect)
	if err != nil {
		t.Fatal(err)
	}
	if next != entries {
		t.Fatalf("final cursor %d, want %d", next, entries)
	}
	if len(seen) != entries {
		t.Fatalf("saw %d entries, want %d (gap or double-fetch)", len(seen), entries)
	}
	for i, idx := range seen {
		if idx != uint64(i) {
			t.Fatalf("entry %d has index %d: not gap-free", i, idx)
		}
	}
}
