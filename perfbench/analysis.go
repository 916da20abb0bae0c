package main

import (
	"sort"
	"time"

	"ctrise/internal/load"
)

// layerStats summarizes the spans of one name inside a phase.
type layerStats struct {
	durs  load.Histogram
	self  load.Histogram // duration minus the part its child spans cover
	items []float64
	bytes int64
	ok    int // spans with status 200 (or no status)
}

func (s *layerStats) count() uint64 { return s.durs.Count() }

// quantile is the q-quantile of the span durations in ms.
func (s *layerStats) quantile(q float64) float64 { return ms(s.durs.Quantile(q)) }

func (s *layerStats) mean() float64 { return ms(s.durs.Mean()) }

func (s *layerStats) meanSelf() float64 { return ms(s.self.Mean()) }

// analyze groups the spans that start inside [from, to] by name and
// computes each span's self time: its duration minus the union of its
// children's intervals, clipped to its own.
func analyze(spans []span, from, to time.Time) map[string]*layerStats {
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerStats{}
	lo, hi := from.UnixNano(), to.UnixNano()
	for _, s := range spans {
		if s.Start < lo || s.Start > hi {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.durs.Record(time.Duration(dur))
		st.self.Record(time.Duration(dur - covered(spans, children[s.ID], s.Start, s.End)))
		st.items = append(st.items, float64(s.Items))
		st.bytes += s.Bytes
		if s.Status == 0 || s.Status == 200 {
			st.ok++
		}
	}
	return out
}

// covered returns how much of [start, end] the given spans cover.
func covered(spans []span, idx []int, start, end int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, start), min(spans[i].End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for k, v := range ivs {
		if k == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// get returns the stats for name, empty when no span had that name.
func get(m map[string]*layerStats, name string) *layerStats {
	if s := m[name]; s != nil {
		return s
	}
	return &layerStats{}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setSpanMetrics sets the per-layer metrics the spans give: count, mean
// and mean self time of every span name present, and the named layer
// latencies and ratios. A layer a workload does not reach reads 0.
func setSpanMetrics(rep *report, m map[string]*layerStats) {
	for name, st := range m {
		rep.set(name+".count", float64(st.count()))
		rep.set(name+".self_ms", st.meanSelf())
		rep.set(name+".mean_ms", st.mean())
	}
	handle, verify, backend := get(m, "ctfront.handle"), get(m, "ctfront.verify"), get(m, "ctfront.backend")
	bundles := float64(handle.count())
	rep.set("ctfront.bundles", bundles)
	rep.set("ctfront.handle_p50_ms", handle.quantile(0.5))
	rep.set("ctfront.handle_p99_ms", handle.quantile(0.99))
	rep.set("ctfront.verify_us", verify.mean()*1000)
	rep.set("ctfront.verify_per_bundle", ratio(float64(verify.count()), bundles))
	rep.set("ctfront.backend_p50_ms", backend.quantile(0.5))
	rep.set("ctfront.backend_p99_ms", backend.quantile(0.99))
	// Every bundle needs one SCT per backend: 90-day certificates need
	// two SCTs, one of them Google-operated.
	needed := 2 * bundles
	rep.set("ctfront.scts_needed", needed)
	rep.set("ctfront.calls_per_bundle", ratio(float64(backend.count()), needed))

	add, create := get(m, "ctlog.add"), get(m, "sct.create")
	rep.set("ctlog.add_p50_ms", add.quantile(0.5))
	rep.set("ctlog.add_p99_ms", add.quantile(0.99))
	rep.set("ctlog.acks", float64(add.ok))
	rep.set("sct.create_us", create.mean()*1000)
	rep.set("sct.creates_per_ack", ratio(float64(create.count()), float64(add.ok)))

	publish := get(m, "ctlog.publish")
	rep.set("ctlog.publish_p50_ms", publish.quantile(0.5))
	rep.set("ctlog.publish_p99_ms", publish.quantile(0.99))
	rep.set("ctlog.batch_p50", median(publish.items))
	rep.set("sct.sign_sth_us", get(m, "sct.sign_sth").mean()*1000)

	proof, cons, entries := get(m, "ctlog.proof"), get(m, "ctlog.consistency"), get(m, "ctlog.entries")
	rep.set("ctlog.proof_p50_ms", proof.quantile(0.5))
	rep.set("ctlog.proof_p99_ms", proof.quantile(0.99))
	rep.set("ctlog.consistency_p50_ms", cons.quantile(0.5))
	rep.set("ctlog.entries_p50_ms", entries.quantile(0.5))
	rep.set("ctlog.entries_p99_ms", entries.quantile(0.99))
	rep.set("ctlog.entries_served", sum(entries.items))
	rep.set("ctlog.bytes_per_entry", ratio(float64(entries.bytes), sum(entries.items)))
}

// setCache sets the page-cache metrics from counter deltas.
func setCache(rep *report, hits, misses, evictions float64) {
	rep.set("storage.page_hits", hits)
	rep.set("storage.page_misses", misses)
	rep.set("storage.page_evictions", evictions)
	rep.set("storage.page_lookups", hits+misses)
	rep.set("storage.page_hit_ratio", ratio(hits, hits+misses))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
