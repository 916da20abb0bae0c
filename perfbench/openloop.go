package main

import (
	"context"
	"sync"
	"time"

	"ctrise/internal/load"
)

// job is one scheduled request of an open-loop run. due is its offset
// from the run start; kind selects the operation and n its argument
// (a payload or target index).
type job struct {
	due  time.Duration
	kind int
	n    int
}

// loopResult aggregates one open-loop run. Latencies are measured from
// each job's due time, not from when it was sent, so a stall that makes
// later requests wait is charged to every request it delayed (no
// coordinated omission). late records how far behind schedule each job
// started; lateTail does the same for the last fifth of the schedule,
// which shows a backlog that grows over the run.
type loopResult struct {
	lat      []load.Histogram
	count    []uint64
	errs     []uint64
	late     load.Histogram
	lateTail load.Histogram
	skipped  uint64 // jobs never started because ctx ended first
	firstErr error
}

func (r *loopResult) attempted() uint64 {
	var n uint64
	for _, c := range r.count {
		n += c
	}
	return n + r.skipped
}

func (r *loopResult) failed() uint64 {
	var n uint64
	for _, c := range r.errs {
		n += c
	}
	return n + r.skipped
}

// runOpenLoop issues jobs (sorted by due) from `workers` goroutines.
// A dispatcher releases each job at its due time to whichever worker is
// free; when none is, the job waits and its wait counts in its latency.
// do performs one job; an error counts the job as failed and keeps its
// latency out of the histogram.
func runOpenLoop(ctx context.Context, workers int, jobs []job, kinds int, do func(ctx context.Context, j job) error) *loopResult {
	start := time.Now().Add(5 * time.Millisecond)
	tailFrom := time.Duration(0)
	if len(jobs) > 0 {
		tailFrom = jobs[len(jobs)-1].due * 4 / 5
	}
	type workerStats struct {
		lat      []load.Histogram
		count    []uint64
		errs     []uint64
		late     load.Histogram
		lateTail load.Histogram
		firstErr error
	}
	stats := make([]*workerStats, workers)
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := &workerStats{
			lat:   make([]load.Histogram, kinds),
			count: make([]uint64, kinds),
			errs:  make([]uint64, kinds),
		}
		stats[w] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				dueAt := start.Add(j.due)
				late := time.Since(dueAt)
				ws.late.Record(late)
				if j.due >= tailFrom {
					ws.lateTail.Record(late)
				}
				err := do(ctx, j)
				ws.count[j.kind]++
				if err != nil {
					ws.errs[j.kind]++
					if ws.firstErr == nil {
						ws.firstErr = err
					}
					continue
				}
				ws.lat[j.kind].Record(time.Since(dueAt))
			}
		}()
	}
	var skipped uint64
dispatch:
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				skipped = uint64(len(jobs) - i)
				break dispatch
			case <-t.C:
			}
		}
		select {
		case <-ctx.Done():
			skipped = uint64(len(jobs) - i)
			break dispatch
		case ch <- j:
		}
	}
	close(ch)
	wg.Wait()

	res := &loopResult{
		lat:     make([]load.Histogram, kinds),
		count:   make([]uint64, kinds),
		errs:    make([]uint64, kinds),
		skipped: skipped,
	}
	for _, ws := range stats {
		for k := 0; k < kinds; k++ {
			res.lat[k].Merge(&ws.lat[k])
			res.count[k] += ws.count[k]
			res.errs[k] += ws.errs[k]
		}
		res.late.Merge(&ws.late)
		res.lateTail.Merge(&ws.lateTail)
		if res.firstErr == nil {
			res.firstErr = ws.firstErr
		}
	}
	return res
}

// fixedRate returns n jobs of one kind spaced evenly at rate per second
// from offset 0, with arguments first, first+1, ...
func fixedRate(kind int, rate float64, d time.Duration, first int) []job {
	n := int(rate * d.Seconds())
	out := make([]job, n)
	for i := range out {
		out[i] = job{due: time.Duration(float64(i) / rate * float64(time.Second)), kind: kind, n: first + i}
	}
	return out
}

// mergeJobs merges job lists that are each sorted by due.
func mergeJobs(a, b []job) []job {
	out := make([]job, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].due <= b[0].due {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
