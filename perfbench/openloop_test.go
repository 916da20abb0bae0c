package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallShowsInP99 runs the open-loop driver against a stub server
// that stalls once for 200 ms, holding every request behind it (as a
// stuck fsync or a GC pause would). Timing from each request's due time
// charges the stall to every request scheduled during it, so p99 shows
// it; timing from the send would record one slow request and hide it.
func TestStallShowsInP99(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		if served.Add(1) == 100 {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	c := newClient(2)
	defer c.close()
	jobs := fixedRate(0, 400, time.Second, 0)
	var sendHist []time.Duration
	var sendMu sync.Mutex
	res := runOpenLoop(context.Background(), 2, jobs, 1, func(ctx context.Context, j job) error {
		t0 := time.Now()
		_, err := c.do(ctx, http.MethodGet, srv.URL, nil, 0)
		sendMu.Lock()
		sendHist = append(sendHist, time.Since(t0))
		sendMu.Unlock()
		return err
	})
	if n := res.failed(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	if got := res.lat[0].Count(); got != uint64(len(jobs)) {
		t.Fatalf("recorded %d latencies, want %d", got, len(jobs))
	}
	p99 := res.lat[0].Quantile(0.99)
	if p99 < stall/2 {
		t.Errorf("p99 from due time = %v, want at least %v: the stall is hidden", p99, stall/2)
	}
	if p50 := res.lat[0].Quantile(0.5); p50 > 20*time.Millisecond {
		t.Errorf("p50 = %v; only requests around the stall should be slow", p50)
	}
	if late := res.late.Quantile(0.99); late < stall/4 {
		t.Errorf("lateness p99 = %v, want the stall to show as requests started behind schedule", late)
	}
	// The same run timed from the send sees the stall on at most the two
	// requests in flight when it began.
	slowSends := 0
	for _, d := range sendHist {
		if d > stall/2 {
			slowSends++
		}
	}
	if slowSends > 2 {
		t.Errorf("%d send-timed requests saw the stall, want at most 2", slowSends)
	}
	if peak := c.lim.Peak(); peak > 2 {
		t.Errorf("client opened %d connections, cap is 2", peak)
	}
}

// TestConnLimiterAcrossHosts checks the connection cap holds when one
// client alternates between two servers.
func TestConnLimiterAcrossHosts(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
	a, b := httptest.NewServer(ok), httptest.NewServer(ok)
	defer a.Close()
	defer b.Close()
	c := newClient(2)
	defer c.close()
	jobs := fixedRate(0, 500, 400*time.Millisecond, 0)
	res := runOpenLoop(context.Background(), 2, jobs, 1, func(ctx context.Context, j job) error {
		u := a.URL
		if j.n%3 == 0 {
			u = b.URL
		}
		_, err := c.do(ctx, http.MethodGet, u, nil, 0)
		return err
	})
	if n := res.failed(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	if peak := c.lim.Peak(); peak > 2 {
		t.Errorf("client opened %d connections across two hosts, cap is 2", peak)
	}
}
