package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctrise/internal/load"
	"ctrise/internal/sct"
)

// The issue workload: CAs submit (pre)certificates through ctfront at a
// fixed open-loop rate, every bundle fans out to both backends, and a
// monitor in the same generator tails backend A.

const (
	kindAdd = iota
	kindPoll
	issueKinds
)

// Driver settings of the issue workload (the shape is in shape.json).
const (
	warmupIndex       = 1 << 30 // offsets warmup payloads away from measured ones
	warmupBundles     = 32
	issueSetupRepeats = 7 // set-ups per run; setup_s is their median
	monitorPoll       = 100 * time.Millisecond
	catchupTimeout    = 10 * time.Second

	// The sustained-rate search (trace runs only).
	sloP99MS        = 100 // add p99 limit
	searchTrial     = 1500 * time.Millisecond
	searchStart     = 2.0  // first trial at this multiple of the offered rate
	searchStep      = 1.15 // rate multiplier between trials
	searchMaxTrials = 8
	searchBisect    = 2
)

type logEP struct {
	name, operator string
	url            string
	keyPath        string
	google         bool
	verifier       sct.SCTVerifier
}

// issueStack is a running ctfront plus two backends, either as the
// production daemons (procs) or as one traced server (srv).
type issueStack struct {
	front string
	logs  []logEP
	dirs  []string
	procs []*proc // ctlogd A, ctlogd B, ctfront
	srv   *served
}

func startIssueStack(ctx context.Context, e *env, dir string, traced bool) (*issueStack, error) {
	st := &issueStack{}
	if traced {
		srv, err := startServed(ctx, e, "issue", dir, 0) // ctlogd's default page cache
		if err != nil {
			return nil, err
		}
		st.srv = srv
		st.front = srv.ready.Front
		for i, l := range srv.ready.Logs {
			st.logs = append(st.logs, logEP{name: l.Name, url: l.URL, keyPath: l.KeyPath, google: i == 0})
			st.dirs = append(st.dirs, filepath.Dir(l.KeyPath))
		}
	} else {
		for _, l := range []logEP{{name: "bench-a", operator: "Google", google: true}, {name: "bench-b", operator: "Indie"}} {
			addr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			d := filepath.Join(dir, l.name)
			p, err := e.procs.start("ctlogd "+l.name, filepath.Join(e.bin, "ctlogd"), nil,
				"-addr", addr, "-name", l.name, "-operator", l.operator, "-data-dir", d,
				"-sequence", e.shape.sequence.String(), "-tile-span", strconv.Itoa(e.shape.Daemons.TileSpan))
			if err != nil {
				return nil, err
			}
			l.url = "http://" + addr
			l.keyPath = filepath.Join(d, "key.der")
			st.logs = append(st.logs, l)
			st.dirs = append(st.dirs, d)
			st.procs = append(st.procs, p)
		}
	}
	// Readiness: each backend answers get-sth signed by the key in its
	// data directory, so the daemon on the port is the one we started.
	c := newClient(1)
	defer c.close()
	for i := range st.logs {
		l := &st.logs[i]
		var p *proc
		if !traced {
			p = st.procs[i]
		}
		err := waitFor(ctx, p, 30*time.Second, func() error {
			v, err := sct.ParseKeySpec(l.name, "keyfile:"+l.keyPath)
			if err != nil {
				return err
			}
			if _, err := getSTH(ctx, c, l.url, v, 0); err != nil {
				return err
			}
			l.verifier = v
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if !traced {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr}
		for _, l := range st.logs {
			spec := fmt.Sprintf("%s,%s,%s,keyfile:%s", l.name, l.operator, l.url, l.keyPath)
			if l.google {
				spec += ",google"
			}
			args = append(args, "-backend", spec)
		}
		p, err := e.procs.start("ctfront", filepath.Join(e.bin, "ctfront"), nil, args...)
		if err != nil {
			return nil, err
		}
		st.procs = append(st.procs, p)
		st.front = "http://" + addr
		err = waitFor(ctx, p, 30*time.Second, func() error {
			body, err := c.do(ctx, http.MethodGet, st.front+"/ctfront/v1/health", nil, 0)
			if err != nil {
				return err
			}
			for _, l := range st.logs {
				if !strings.Contains(string(body), `"`+l.name+`"`) {
					return fmt.Errorf("health does not list %s", l.name)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// hwmMB sums the daemons' peak resident sets so far, in MiB.
func (st *issueStack) hwmMB() float64 {
	if st.srv != nil {
		return st.srv.p.hwmMB()
	}
	var rss float64
	for _, p := range st.procs {
		rss += p.hwmMB()
	}
	return rss
}

// stop shuts the stack down cleanly and returns, when traced, the spans.
func (st *issueStack) stop(ctx context.Context) ([]span, error) {
	if st.srv != nil {
		return st.srv.stop(ctx)
	}
	for i := len(st.procs) - 1; i >= 0; i-- { // ctfront first
		st.procs[i].stop(15 * time.Second)
	}
	return nil, nil
}

// ackRec is one acknowledged bundle: the SCT from each backend.
type ackRec struct {
	p    *payload
	scts []*sct.SignedCertificateTimestamp
}

// issueRun is one stack under load.
type issueRun struct {
	st  *issueStack
	c   *client
	rec *recorder // generator spans; nil when untraced

	mu     sync.Mutex
	acks   []ackRec
	ackAt  map[string]time.Time // measured submissions: entry key -> ack
	seenAt map[string]time.Time // entry key -> first get-entries return on backend A

	pollMu  sync.Mutex
	monNext uint64
}

// submit sends one bundle request through ctfront and checks that the
// answer carries one SCT from each backend.
func (r *issueRun) submit(ctx context.Context, p *payload, genID uint64, track bool) error {
	start := time.Now()
	body, err := r.c.do(ctx, http.MethodPost, r.st.front+"/ctfront/v1/"+p.route(), p.body, genID)
	now := time.Now()
	if r.rec != nil && genID != 0 {
		r.rec.add(span{ID: genID, Req: genID, Name: "gen.add", Start: start.UnixNano(), End: now.UnixNano()})
	}
	if err != nil {
		return err
	}
	var b bundleResp
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decoding bundle: %w", err)
	}
	rec := ackRec{p: p, scts: make([]*sct.SignedCertificateTimestamp, len(r.st.logs))}
	for _, s := range b.SCTs {
		for i, l := range r.st.logs {
			if s.LogName == l.name {
				if rec.scts[i], err = parseSCT(s); err != nil {
					return err
				}
			}
		}
	}
	for i, s := range rec.scts {
		if s == nil {
			return fmt.Errorf("bundle lacks an SCT from %s", r.st.logs[i].name)
		}
	}
	r.mu.Lock()
	r.acks = append(r.acks, rec)
	if track {
		r.ackAt[entryKey(p.precert, p.data)] = now
	}
	r.mu.Unlock()
	return nil
}

// poll is one monitor step on backend A: get-sth, then get-entries over
// every new entry. Overlapping polls skip.
func (r *issueRun) poll(ctx context.Context, genID uint64) error {
	if !r.pollMu.TryLock() {
		return nil
	}
	defer r.pollMu.Unlock()
	a := r.st.logs[0]
	start := time.Now()
	defer func() {
		if r.rec != nil && genID != 0 {
			r.rec.add(span{ID: genID, Req: genID, Name: "gen.poll", Start: start.UnixNano(), End: time.Now().UnixNano()})
		}
	}()
	head, err := getSTH(ctx, r.c, a.url, a.verifier, genID)
	if err != nil {
		return err
	}
	for r.monNext < head.size {
		end := min(r.monNext+999, head.size-1)
		body, err := r.c.do(ctx, http.MethodGet, fmt.Sprintf("%s/ct/v1/get-entries?start=%d&end=%d", a.url, r.monNext, end), nil, genID)
		if err != nil {
			return err
		}
		_, entries, err := parseEntries(body)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("get-entries [%d, %d] returned nothing below tree size %d", r.monNext, end, head.size)
		}
		now := time.Now()
		r.mu.Lock()
		for _, en := range entries {
			k := entryKey(en.Type == sct.PrecertLogEntryType, en.Cert)
			if _, ok := r.seenAt[k]; !ok {
				r.seenAt[k] = now
			}
		}
		r.mu.Unlock()
		r.monNext += uint64(len(entries))
	}
	return nil
}

// issueOutcome is what one issue phase measured.
type issueOutcome struct {
	setup      []float64
	add        load.Histogram
	visible    load.Histogram
	late       load.Histogram
	sustained  float64
	rss        float64
	cpuFrontMS float64 // per bundle
	cpuLogdMS  float64 // per ctlogd request
}

func runIssue(ctx context.Context, e *env, traced bool) error {
	rep := e.rep
	if !traced {
		// The sustained-rate search runs only with -trace 1: its result
		// does not repeat within the bounds, so it is not gated, and
		// it would double this run.
		out, err := issuePhase(ctx, e, false, issueSetupRepeats, false)
		if err != nil {
			return err
		}
		setE2E(rep, "", median(out.setup), &out.add, &out.visible, out.sustained, out.rss)
		rep.show("setup_s", "s", median(out.setup))
		rep.show("add_p50_ms", "ms", ms(out.add.Quantile(0.5)))
		rep.show("add_p99_ms", "ms", ms(out.add.Quantile(0.99)))
		rep.show("visible_p50_ms", "ms", ms(out.visible.Quantile(0.5)))
		rep.show("peak_rss_mb", "MiB", out.rss)
		rep.show("gen.late_p99_ms", "ms", ms(out.late.Quantile(0.99)))
		rep.show("ctfront.cpu_ms_per_req", "ms", out.cpuFrontMS)
		rep.show("ctlogd.cpu_ms_per_req", "ms", out.cpuLogdMS)
		return nil
	}
	plain, err := issuePhase(ctx, e, false, 1, true)
	if err != nil {
		return err
	}
	setE2E(rep, "untraced.", median(plain.setup), &plain.add, &plain.visible, plain.sustained, plain.rss)
	rep.set("ctfront.cpu_ms_per_req", plain.cpuFrontMS)
	rep.set("ctlogd.cpu_ms_per_req", plain.cpuLogdMS)
	out, err := issuePhase(ctx, e, true, 1, false)
	if err != nil {
		return err
	}
	setE2E(rep, "traced.", median(out.setup), &out.add, &out.visible, 0, out.rss)
	rep.set("gen.late_p99_ms", ms(out.late.Quantile(0.99)))
	return nil
}

// setE2E records the generic end-to-end metrics under a prefix.
func setE2E(rep *report, prefix string, setup float64, op, aux *load.Histogram, throughput, rss float64) {
	rep.set(prefix+"setup_s", setup)
	rep.set(prefix+"op_p50_ms", ms(op.Quantile(0.5)))
	rep.set(prefix+"op_p99_ms", ms(op.Quantile(0.99)))
	rep.set(prefix+"aux_p50_ms", ms(aux.Quantile(0.5)))
	if throughput > 0 {
		rep.set(prefix+"throughput_per_s", throughput)
	}
	rep.set(prefix+"peak_rss_mb", rss)
}

// issuePhase sets the stack up `repeats` times (keeping the last), runs
// the fixed-rate phase with the monitor, optionally searches the
// sustained rate, and checks every acknowledged bundle.
func issuePhase(ctx context.Context, e *env, traced bool, repeats int, search bool) (*issueOutcome, error) {
	sh := &e.shape.Issue
	out := &issueOutcome{}
	var st *issueStack
	var err error
	c := newClient(e.conns)
	defer c.close()
	for k := 0; k < repeats; k++ {
		if st != nil {
			if _, err := st.stop(ctx); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(e.work, fmt.Sprintf("issue-%v-%d", traced, k))
		t0 := time.Now()
		if st, err = startIssueStack(ctx, e, dir, traced); err != nil {
			return nil, err
		}
		// Warm up: connections open and the first WAL writes done.
		warm := &issueRun{st: st, c: c}
		for i := 0; i < warmupBundles; i++ {
			p := makePayload(e.seed, warmupIndex+k*warmupBundles+i, sh.PrecertShare)
			if err := warm.submit(ctx, &p, 0, false); err != nil {
				return nil, fmt.Errorf("warmup submission %d: %w", i, err)
			}
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	run := &issueRun{st: st, c: c, ackAt: map[string]time.Time{}, seenAt: map[string]time.Time{}}
	if traced {
		run.rec = newRecorder(genSpanBase)
	}
	warmups := uint64(warmupBundles)
	dirsBefore := int64(0)
	for _, d := range st.dirs {
		dirsBefore += dirBytes(d)
	}

	// The measured phase.
	adds := fixedRate(kindAdd, sh.RatePerS, e.seconds, 0)
	payloads := make([]payload, len(adds))
	for i := range payloads {
		payloads[i] = makePayload(e.seed, i, sh.PrecertShare)
	}
	// Each poll falls at a random point of its slot, so the delay from a
	// publish to the next poll does not depend on how the poll schedule
	// happens to line up with the sequencer's ticks in this run.
	polls := fixedRate(kindPoll, float64(time.Second/monitorPoll), e.seconds, 0)
	for i := range polls {
		polls[i].due += time.Duration(rnd(e.seed, i, 12) % uint64(monitorPoll))
	}
	jobs := mergeJobs(adds, polls)
	var sampleBefore, sampleAfter sample
	if traced {
		if sampleBefore, err = st.srv.sample(ctx); err != nil {
			return nil, err
		}
	}
	cpuBefore := make([]time.Duration, len(st.procs))
	for i, p := range st.procs {
		cpuBefore[i] = p.cpu()
	}
	phaseStart := time.Now()
	res := runOpenLoop(ctx, e.conns, jobs, issueKinds, func(ctx context.Context, j job) error {
		var genID uint64
		if run.rec != nil {
			genID = run.rec.id()
		}
		if j.kind == kindPoll {
			return run.poll(ctx, genID)
		}
		return run.submit(ctx, &payloads[j.n], genID, true)
	})
	phaseEnd := time.Now()
	if len(st.procs) == 3 {
		bundles := float64(res.count[kindAdd])
		out.cpuFrontMS = ratio(ms(st.procs[2].cpu()-cpuBefore[2]), bundles)
		logd := st.procs[0].cpu() - cpuBefore[0] + st.procs[1].cpu() - cpuBefore[1]
		// Each bundle is one add per backend; each poll is a get-sth
		// plus get-entries pages on backend A.
		out.cpuLogdMS = ratio(ms(logd), 2*bundles+2*float64(res.count[kindPoll]))
	}
	if traced {
		if sampleAfter, err = st.srv.sample(ctx); err != nil {
			return nil, err
		}
	}
	e.rep.ops(res.attempted(), res.failed())
	if n := res.failed(); n > 0 {
		e.rep.problem("issue: %d of %d scheduled operations failed; first: %v", n, res.attempted(), res.firstErr)
	}
	out.add = res.lat[kindAdd]
	out.late = res.late

	// Catch up: the monitor must see every measured entry.
	deadline := time.Now().Add(catchupTimeout)
	for {
		if err := run.poll(ctx, 0); err != nil {
			return nil, fmt.Errorf("monitor catch-up: %w", err)
		}
		run.mu.Lock()
		missing := 0
		for k := range run.ackAt {
			if _, ok := run.seenAt[k]; !ok {
				missing++
			}
		}
		run.mu.Unlock()
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			e.rep.problem("issue: %d acknowledged entries never reached backend A's get-entries", missing)
			e.rep.ops(0, uint64(missing))
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	for k, ack := range run.ackAt {
		if seen, ok := run.seenAt[k]; ok {
			out.visible.Record(seen.Sub(ack))
		}
	}

	// Peak RSS of the measured phase, before the search adds load.
	out.rss = st.hwmMB()
	if search {
		out.sustained = searchSustained(ctx, e, run)
	}
	if err := verifyIssued(ctx, e, run, warmups); err != nil {
		return nil, err
	}
	if peak := c.lim.Peak(); peak > e.nproc {
		return nil, fmt.Errorf("generator held %d connections open, more than nproc=%d", peak, e.nproc)
	}

	if traced {
		userBytes := int64(0)
		for _, a := range run.acks {
			userBytes += int64(len(a.p.data)) * int64(len(st.logs))
		}
		diskBytes := int64(0)
		for _, d := range st.dirs {
			diskBytes += dirBytes(d)
		}
		spans, err := st.stop(ctx)
		if err != nil {
			return nil, err
		}
		spans = append(spans, run.rec.all()...)
		issueLayers(e, spans, phaseStart, phaseEnd, sampleBefore, sampleAfter, res)
		e.rep.set("storage.disk_bytes", float64(diskBytes-dirsBefore))
		e.rep.set("storage.user_bytes", float64(userBytes))
		e.rep.set("storage.disk_bytes_per_user_byte", ratio(float64(diskBytes-dirsBefore), float64(userBytes)))
		e.rep.set("gen.peak_conns", float64(c.lim.Peak()))
		e.rep.set("ctlog.open_s", st.srv.ready.OpenS)
		return out, nil
	}
	if _, err := st.stop(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// issueLayers derives the per-layer metrics of the measured phase.
func issueLayers(e *env, spans []span, from, to time.Time, before, after sample, res *loopResult) {
	rep := e.rep
	setSpanMetrics(rep, analyze(spans, from, to))
	shed := func(s sample) uint64 {
		a := s.Admission
		return a.ShedInflight + a.ShedGlobalRate + a.ShedClientRate + a.ShedDraining
	}
	rep.set("ctfront.shed", float64(shed(after)-shed(before)))
	var sealed, rejected, hits, misses, evictions, pending float64
	for i := range after.Logs {
		pending += float64(after.Logs[i].Pending)
		sealed += float64(after.Logs[i].TiledThrough - before.Logs[i].TiledThrough)
		rejected += float64(after.Logs[i].Rejected - before.Logs[i].Rejected)
		hits += float64(after.Logs[i].Hits - before.Logs[i].Hits)
		misses += float64(after.Logs[i].Misses - before.Logs[i].Misses)
		evictions += float64(after.Logs[i].Evictions - before.Logs[i].Evictions)
	}
	// Entries acknowledged but not yet sequenced when the phase ended: a
	// sequencer that falls behind leaves more than one interval's worth.
	rep.set("ctlog.pending_end", pending)
	rep.set("ctlog.tiles_sealed", sealed/float64(e.shape.Daemons.TileSpan))
	rep.set("ctlog.rejected", rejected)
	setCache(rep, hits, misses, evictions)
	rep.set("gen.requests", float64(res.attempted()))
}

// searchSustained finds the highest offered rate the stack sustains. A
// trial passes when add p99 stays under sloP99MS, at most 1% of its
// requests fail, and its last fifth starts on schedule (no growing
// backlog). Rates step up geometrically from searchStart times the
// measured rate until a trial fails; the bracket around the first
// failure is then bisected searchBisect times, and the result is
// interpolated inside the final bracket where p99 crosses the limit.
func searchSustained(ctx context.Context, e *env, run *issueRun) float64 {
	sh := &e.shape.Issue
	const slo = sloP99MS
	trialLen := searchTrial
	next := 1 << 29 // payload indices of the search, apart from measured and warmup ones
	type point struct {
		rate, p99 float64
		ok        bool
	}
	trial := func(rate float64) point {
		adds := fixedRate(kindAdd, rate, trialLen, 0)
		payloads := make([]payload, len(adds))
		for i := range payloads {
			payloads[i] = makePayload(e.seed, next+i, sh.PrecertShare)
		}
		next += len(adds)
		// Let the sequencer publish the previous trial's entries first,
		// so a trial does not start behind its predecessor's batch.
		select {
		case <-ctx.Done():
		case <-time.After(e.shape.sequence):
		}
		tctx, cancel := context.WithTimeout(ctx, 2*trialLen+2*time.Second)
		res := runOpenLoop(tctx, e.conns, adds, issueKinds, func(ctx context.Context, j job) error {
			return run.submit(ctx, &payloads[j.n], 0, false)
		})
		cancel()
		// Jobs a timed-out trial never started were not attempted.
		e.rep.ops(res.attempted()-res.skipped, res.failed()-res.skipped)
		p := point{rate: rate, p99: ms(res.lat[kindAdd].Quantile(0.99))}
		late := ms(res.lateTail.Quantile(0.99))
		p.ok = float64(res.errs[kindAdd]) <= 0.01*float64(res.count[kindAdd]) && res.skipped == 0 && p.p99 <= slo && late <= slo
		if res.skipped > 0 {
			p.p99 = math.Max(p.p99, 10*slo) // cut short: far past the limit
		}
		fmt.Printf("  search trial %7.1f/s: p99 %8.3f ms, late p99 %8.3f ms, failed %d/%d: %v\n",
			rate, p.p99, late, res.errs[kindAdd], res.count[kindAdd], p.ok)
		return p
	}
	lo := point{rate: sh.RatePerS, p99: 0, ok: true}
	var hi point
	rate := sh.RatePerS * searchStart
	for t := 0; ; t++ {
		if ctx.Err() != nil || t == searchMaxTrials {
			return lo.rate
		}
		p := trial(rate)
		if !p.ok {
			hi = p
			break
		}
		lo = p
		rate *= searchStep
	}
	for b := 0; b < searchBisect && ctx.Err() == nil; b++ {
		if p := trial((lo.rate + hi.rate) / 2); p.ok {
			lo = p
		} else {
			hi = p
		}
	}
	if hi.p99 <= slo || hi.p99 <= lo.p99 {
		return lo.rate // failed on errors or backlog, not on p99
	}
	f := math.Min(math.Max((slo-lo.p99)/(hi.p99-lo.p99), 0), 1)
	return lo.rate + f*(hi.rate-lo.rate)
}

// verifyIssued checks, after a final publish on both backends, every
// bundle SCT against the backend's key.der and every acknowledged
// entry's inclusion proof against the backend's signed tree head.
func verifyIssued(ctx context.Context, e *env, run *issueRun, warmups uint64) error {
	rep := e.rep
	want := uint64(len(run.acks)) + warmups
	heads := make([]sth, len(run.st.logs))
	c := run.c
	for i, l := range run.st.logs {
		deadline := time.Now().Add(30 * time.Second)
		for {
			h, err := getSTH(ctx, c, l.url, l.verifier, 0)
			if err != nil {
				return fmt.Errorf("final get-sth on %s: %w", l.name, err)
			}
			if h.size >= want {
				heads[i] = h
				break
			}
			if time.Now().After(deadline) {
				rep.problem("issue: %s published %d entries, %d were acknowledged", l.name, h.size, want)
				rep.ops(0, 1)
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	type check struct{ ack, log int }
	work := make(chan check)
	var mu sync.Mutex
	bad := map[int]bool{} // acknowledged bundles with a failed check
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < e.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range work {
				err := verifyOne(ctx, c, run.st.logs[ch.log], heads[ch.log], &run.acks[ch.ack], ch.log)
				if err != nil {
					mu.Lock()
					bad[ch.ack] = true
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range run.acks {
		for l := range run.st.logs {
			select {
			case work <- check{i, l}:
			case <-ctx.Done():
			}
		}
	}
	close(work)
	wg.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(bad) > 0 {
		rep.problem("issue: %d acknowledged bundles failed an SCT or inclusion check; first: %v", len(bad), firstErr)
		rep.ops(0, uint64(len(bad)))
	}
	return nil
}

func verifyOne(ctx context.Context, c *client, l logEP, head sth, a *ackRec, i int) error {
	s := a.scts[i]
	if err := l.verifier.VerifySCT(s, a.p.entry()); err != nil {
		return fmt.Errorf("%s SCT: %w", l.name, err)
	}
	leaf, err := a.p.leafHash(s)
	if err != nil {
		return err
	}
	if _, err := checkInclusion(ctx, c, l.url, leaf, head, 0); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	return nil
}
