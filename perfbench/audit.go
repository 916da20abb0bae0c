package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/load"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// The audit workload: one durable log, several times larger than
// ctlogd's page cache, served read-only to an open-loop mix of proofs,
// consistency proofs, get-entries pages and get-sth, then crawled whole
// over one connection.

const (
	kindProof = iota
	kindConsistency
	kindEntries
	kindSTH
	auditKinds
)

var auditKindNames = []string{"proof", "consistency", "entries", "sth"}

// Driver settings of the audit workload (the shape is in shape.json).
const (
	auditSetupRepeats = 3   // set-ups per run; setup_s is their median
	minTreeOverCache  = 4   // the log on disk must be this many times the page cache
	consistencySizes  = 512 // distinct first sizes for consistency proofs
	crawlMin          = 2 * time.Second
)

// auditLog is a built log and what the generator knows about it.
type auditLog struct {
	dir       string
	leaves    []merkle.Hash // in tree order
	root      merkle.Hash
	span      int           // tile span
	sealed    int           // entries in sealed tiles
	sizes     []uint64      // consistency-proof first sizes
	roots     []merkle.Hash // root at each of sizes
	bytes     int64         // on disk
	userBytes int64
}

// buildAuditLog writes a durable log of the payloads into dir, with the
// key.der ctlogd will sign with, the way a bulk load does it
// (SyncAtSequence, a publish every 4096 entries). It checks that the
// tree holds exactly the submitted entries and that its root matches
// the published one.
func buildAuditLog(e *env, dir string, payloads []payload) (*auditLog, error) {
	signer, err := writeKey(dir)
	if err != nil {
		return nil, err
	}
	l, err := ctlog.Open(dir, ctlog.Config{Name: "bench-audit", Operator: "Google", Signer: signer,
		Sync: ctlog.SyncAtSequence, TileSpan: e.shape.Daemons.TileSpan})
	if err != nil {
		return nil, err
	}
	defer l.Close() // error path; the clean path closes and checks below
	want := make(map[merkle.Hash]bool, len(payloads))
	var mu sync.Mutex
	var addErr error
	var wg sync.WaitGroup
	const chunk = 4096
	for lo := 0; lo < len(payloads); lo += chunk {
		hi := min(lo+chunk, len(payloads))
		for w := 0; w < e.nproc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < hi; i += e.nproc {
					p := &payloads[i]
					var s *sct.SignedCertificateTimestamp
					var err error
					if p.precert {
						s, err = l.AddPreChain(p.ikh, p.data)
					} else {
						s, err = l.AddChain(p.data)
					}
					var h merkle.Hash
					if err == nil {
						h, err = p.leafHash(s)
					}
					mu.Lock()
					if err != nil && addErr == nil {
						addErr = err
					}
					want[h] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if addErr != nil {
			return nil, fmt.Errorf("building audit log: %w", addErr)
		}
		if _, err := l.PublishSTH(); err != nil {
			return nil, fmt.Errorf("building audit log: %w", err)
		}
	}
	a := &auditLog{dir: dir, leaves: make([]merkle.Hash, 0, len(payloads)),
		span: e.shape.Daemons.TileSpan, sealed: int(l.TiledThrough())}
	var f frontier
	err = l.StreamEntries(0, uint64(len(payloads))-1, func(en *ctlog.Entry) error {
		h, err := en.LeafHash()
		if err != nil {
			return err
		}
		if !want[h] {
			return fmt.Errorf("entry %d is not one that was submitted", en.Index)
		}
		a.leaves = append(a.leaves, h)
		f.push(h)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reading back audit log: %w", err)
	}
	a.root = f.root()
	head := l.STH()
	if head.TreeHead.TreeSize != uint64(len(payloads)) || len(a.leaves) != len(payloads) || merkle.Hash(head.TreeHead.RootHash) != a.root {
		return nil, fmt.Errorf("audit log: published size %d root %x, rebuilt %d leaves root %x",
			head.TreeHead.TreeSize, head.TreeHead.RootHash[:8], len(a.leaves), a.root[:8])
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	for _, p := range payloads {
		a.userBytes += int64(len(p.data))
	}
	a.bytes = dirBytes(dir)
	return a, nil
}

// pageLen is how many entries get-entries [start, end] returns under
// the log's paging contract: the whole range, except that a page
// starting in the sealed prefix ends at its tile's last entry.
func (a *auditLog) pageLen(start, end int) int {
	end = min(end, len(a.leaves)-1)
	if start < a.sealed {
		end = min(end, (start/a.span+1)*a.span-1)
	}
	return end - start + 1
}

// prefixRoots draws k first sizes for consistency proofs and computes
// the tree root at each.
func (a *auditLog) prefixRoots(seed int64, k int) {
	n := len(a.leaves)
	seen := map[uint64]bool{}
	for i := 0; len(a.sizes) < k && i < 4*k; i++ {
		s := uint64(1 + pick(seed, i, 11, n-1))
		if !seen[s] {
			seen[s] = true
			a.sizes = append(a.sizes, s)
		}
	}
	sort.Slice(a.sizes, func(i, j int) bool { return a.sizes[i] < a.sizes[j] })
	var f frontier
	next := 0
	for i, h := range a.leaves {
		f.push(h)
		for next < len(a.sizes) && a.sizes[next] == uint64(i+1) {
			a.roots = append(a.roots, f.root())
			next++
		}
	}
}

// auditOutcome is what one audit phase measured.
type auditOutcome struct {
	setup     []float64
	lat       []load.Histogram
	late      load.Histogram
	crawl     float64 // entries per second
	rss       float64
	cpuLogdMS float64
}

func runAudit(ctx context.Context, e *env, traced bool) error {
	rep := e.rep
	sh := &e.shape.Audit
	payloads := make([]payload, sh.Entries)
	for i := range payloads {
		payloads[i] = makePayload(e.seed, i, 0.8)
	}
	if !traced {
		out, err := auditPhase(ctx, e, payloads, false, auditSetupRepeats)
		if err != nil {
			return err
		}
		setE2E(rep, "", median(out.setup), &out.lat[kindProof], &out.lat[kindEntries], out.crawl, out.rss)
		rep.show("setup_s", "s", median(out.setup))
		rep.show("proof_p50_ms", "ms", ms(out.lat[kindProof].Quantile(0.5)))
		rep.show("proof_p99_ms", "ms", ms(out.lat[kindProof].Quantile(0.99)))
		rep.show("entries_p50_ms", "ms", ms(out.lat[kindEntries].Quantile(0.5)))
		rep.show("entries_p99_ms", "ms", ms(out.lat[kindEntries].Quantile(0.99)))
		rep.show("crawl_entries_per_s", "1/s", out.crawl)
		rep.show("peak_rss_mb", "MiB", out.rss)
		rep.show("gen.late_p99_ms", "ms", ms(out.late.Quantile(0.99)))
		rep.show("ctlogd.cpu_ms_per_req", "ms", out.cpuLogdMS)
		return nil
	}
	plain, err := auditPhase(ctx, e, payloads, false, 1)
	if err != nil {
		return err
	}
	setE2E(rep, "untraced.", median(plain.setup), &plain.lat[kindProof], &plain.lat[kindEntries], plain.crawl, plain.rss)
	rep.set("ctlogd.cpu_ms_per_req", plain.cpuLogdMS)
	out, err := auditPhase(ctx, e, payloads, true, 1)
	if err != nil {
		return err
	}
	setE2E(rep, "traced.", median(out.setup), &out.lat[kindProof], &out.lat[kindEntries], out.crawl, out.rss)
	rep.set("gen.late_p99_ms", ms(out.late.Quantile(0.99)))
	return nil
}

// auditServer is the log being audited, as ctlogd or as the traced
// server.
type auditServer struct {
	url      string
	verifier sct.SCTVerifier
	p        *proc
	srv      *served
}

func startAuditServer(ctx context.Context, e *env, a *auditLog, traced bool) (*auditServer, error) {
	as := &auditServer{}
	budget := e.shape.Audit.PageCacheBytes
	if traced {
		srv, err := startServed(ctx, e, "audit", a.dir, budget)
		if err != nil {
			return nil, err
		}
		as.srv, as.p, as.url = srv, srv.p, srv.ready.Logs[0].URL
	} else {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := e.procs.start("ctlogd audit", filepath.Join(e.bin, "ctlogd"), nil,
			"-addr", addr, "-name", "bench-audit", "-operator", "Google", "-data-dir", a.dir,
			"-sequence", e.shape.sequence.String(), "-tile-span", strconv.Itoa(e.shape.Daemons.TileSpan),
			"-page-cache", strconv.FormatInt(budget, 10))
		if err != nil {
			return nil, err
		}
		as.p, as.url = p, "http://"+addr
	}
	v, err := sct.ParseKeySpec("bench-audit", "keyfile:"+filepath.Join(a.dir, "key.der"))
	if err != nil {
		return nil, err
	}
	as.verifier = v
	c := newClient(1)
	defer c.close()
	err = waitFor(ctx, as.p, 60*time.Second, func() error { return as.checkHead(ctx, c, a, 0) })
	return as, err
}

// checkHead fetches get-sth and checks that it is signed by the log's
// key and names the size and root the driver built.
func (as *auditServer) checkHead(ctx context.Context, c *client, a *auditLog, span uint64) error {
	h, err := getSTH(ctx, c, as.url, as.verifier, span)
	if err != nil {
		return err
	}
	if h.size != uint64(len(a.leaves)) || h.root != a.root {
		return fmt.Errorf("get-sth: size %d root %x, built %d %x", h.size, h.root[:8], len(a.leaves), a.root[:8])
	}
	return nil
}

func (as *auditServer) stop(ctx context.Context) ([]span, error) {
	if as.srv != nil {
		return as.srv.stop(ctx)
	}
	as.p.stop(15 * time.Second)
	return nil, nil
}

// auditOp performs and checks one audit request.
func auditOp(ctx context.Context, e *env, c *client, as *auditServer, a *auditLog, j job, genID uint64) error {
	n := uint64(len(a.leaves))
	switch j.kind {
	case kindProof:
		i := pick(e.seed, j.n, 8, int(n))
		idx, err := checkInclusion(ctx, c, as.url, a.leaves[i], sth{size: n, root: a.root}, genID)
		if err == nil && idx != uint64(i) {
			err = fmt.Errorf("proof for leaf %d names index %d", i, idx)
		}
		return err
	case kindConsistency:
		k := pick(e.seed, j.n, 9, len(a.sizes))
		u := fmt.Sprintf("%s/ct/v1/get-sth-consistency?first=%d&second=%d", as.url, a.sizes[k], n)
		body, err := c.do(ctx, http.MethodGet, u, nil, genID)
		if err != nil {
			return err
		}
		var cr consistencyResp
		if err := json.Unmarshal(body, &cr); err != nil {
			return err
		}
		proof, err := decodeHashes(cr.Consistency)
		if err != nil {
			return err
		}
		return merkle.VerifyConsistency(a.sizes[k], n, a.roots[k], a.root, proof)
	case kindEntries:
		page := e.shape.Audit.EntriesPage
		start := pick(e.seed, j.n, 10, int(n)-page+1)
		_, err := fetchPage(ctx, c, as.url, a, start, start+page-1, genID)
		return err
	default:
		return as.checkHead(ctx, c, a, genID)
	}
}

// fetchPage fetches get-entries [start, end], checks that the answer is
// exactly the first pageLen entries of that range, leaf for leaf, and
// returns how many entries came back.
func fetchPage(ctx context.Context, c *client, base string, a *auditLog, start, end int, genID uint64) (int, error) {
	body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("%s/ct/v1/get-entries?start=%d&end=%d", base, start, end), nil, genID)
	if err != nil {
		return 0, err
	}
	hashes, _, err := parseEntries(body)
	if err != nil {
		return 0, err
	}
	if want := a.pageLen(start, end); len(hashes) != want {
		return 0, fmt.Errorf("get-entries [%d, %d] returned %d entries, want %d", start, end, len(hashes), want)
	}
	for i, h := range hashes {
		if h != a.leaves[start+i] {
			return 0, fmt.Errorf("get-entries [%d, %d]: entry %d differs from the log's leaf", start, end, start+i)
		}
	}
	return len(hashes), nil
}

// auditPhase builds and serves the log `repeats` times (keeping the
// last), runs the open-loop read mix, then crawls the log.
func auditPhase(ctx context.Context, e *env, payloads []payload, traced bool, repeats int) (*auditOutcome, error) {
	sh := &e.shape.Audit
	out := &auditOutcome{}
	var a *auditLog
	var as *auditServer
	c := newClient(e.conns)
	defer c.close()
	for k := 0; k < repeats; k++ {
		if as != nil {
			if _, err := as.stop(ctx); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		a, err = buildAuditLog(e, filepath.Join(e.work, fmt.Sprintf("audit-%v-%d", traced, k)), payloads)
		if err != nil {
			return nil, err
		}
		a.prefixRoots(e.seed, consistencySizes)
		if as, err = startAuditServer(ctx, e, a, traced); err != nil {
			return nil, err
		}
		for i := 0; i < 32; i++ {
			if err := auditOp(ctx, e, c, as, a, job{kind: i % auditKinds, n: -1 - i}, 0); err != nil {
				return nil, fmt.Errorf("audit warmup: %w", err)
			}
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	if a.bytes < minTreeOverCache*sh.PageCacheBytes {
		return nil, fmt.Errorf("audit log is %d bytes on disk, less than %d x the %d-byte page cache",
			a.bytes, minTreeOverCache, sh.PageCacheBytes)
	}
	fmt.Printf("  audit log: %d entries, %d bytes on disk, page cache %d bytes (%.1fx)\n",
		len(a.leaves), a.bytes, sh.PageCacheBytes, float64(a.bytes)/float64(sh.PageCacheBytes))

	jobs := fixedRate(0, sh.RatePerS, e.seconds, 0)
	weights := []int{sh.Mix["proof"], sh.Mix["consistency"], sh.Mix["entries"], sh.Mix["sth"]}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := range jobs {
		r := pick(e.seed, i, 7, total)
		for k, w := range weights {
			if r < w {
				jobs[i].kind = k
				break
			}
			r -= w
		}
	}
	var rec *recorder
	if traced {
		rec = newRecorder(genSpanBase)
	}
	var before, mid sample
	var err error
	if traced {
		if before, err = as.srv.sample(ctx); err != nil {
			return nil, err
		}
	}
	cpu0 := as.p.cpu()
	phaseStart := time.Now()
	res := runOpenLoop(ctx, e.conns, jobs, auditKinds, func(ctx context.Context, j job) error {
		var genID uint64
		var start time.Time
		if rec != nil {
			genID, start = rec.id(), time.Now()
		}
		err := auditOp(ctx, e, c, as, a, j, genID)
		if rec != nil {
			rec.add(span{ID: genID, Req: genID, Name: "gen." + auditKindNames[j.kind], Start: start.UnixNano(), End: time.Now().UnixNano()})
		}
		return err
	})
	phaseEnd := time.Now()
	if traced {
		if mid, err = as.srv.sample(ctx); err != nil {
			return nil, err
		}
	} else {
		out.cpuLogdMS = ratio(ms(as.p.cpu()-cpu0), float64(res.attempted()))
	}
	e.rep.ops(res.attempted(), res.failed())
	for k := 0; k < auditKinds; k++ {
		if res.errs[k] > 0 {
			e.rep.problem("audit: %d of %d %s requests failed; first failure of the run: %v", res.errs[k], res.count[k], auditKindNames[k], res.firstErr)
		}
	}
	out.lat, out.late = res.lat, res.late

	// Crawl: the whole log over one connection, max-size pages, until
	// crawlMin has passed; the median pass is reported. The mix's
	// connections close first, keeping the generator within nproc.
	c.close()
	crawler := newClient(1)
	var passes []float64
	crawlStart := time.Now()
	for len(passes) == 0 || time.Since(crawlStart) < crawlMin {
		t0 := time.Now()
		pages, bad := uint64(0), uint64(0)
		for pos := 0; pos < len(a.leaves); {
			end := min(pos+sh.CrawlPage-1, len(a.leaves)-1)
			got, err := fetchPage(ctx, crawler, as.url, a, pos, end, 0)
			pages++
			if err != nil {
				bad++
				e.rep.problem("audit crawl: %v", err)
				break
			}
			pos += got
		}
		e.rep.ops(pages, bad)
		passes = append(passes, float64(len(a.leaves))/time.Since(t0).Seconds())
		if bad > 0 || ctx.Err() != nil {
			break
		}
	}
	crawler.close()
	out.crawl = median(passes)
	var after sample
	if traced {
		if after, err = as.srv.sample(ctx); err != nil {
			return nil, err
		}
	}

	out.rss = as.p.hwmMB()
	spans, err := as.stop(ctx)
	if err != nil {
		return nil, err
	}
	if traced {
		spans = append(spans, rec.all()...)
		rep := e.rep
		setSpanMetrics(rep, analyze(spans, phaseStart, phaseEnd))
		l0, l1, l2 := before.Logs[0], mid.Logs[0], after.Logs[0]
		setCache(rep, float64(l1.Hits-l0.Hits), float64(l1.Misses-l0.Misses), float64(l1.Evictions-l0.Evictions))
		// The crawl reads every tile once per pass, in order.
		rep.set("storage.crawl_page_misses", float64(l2.Misses-l1.Misses))
		rep.set("storage.crawl_page_hit_ratio", ratio(float64(l2.Hits-l1.Hits), float64(l2.Hits-l1.Hits+l2.Misses-l1.Misses)))
		rep.set("ctlog.open_s", as.srv.ready.OpenS)
		rep.set("storage.disk_bytes", float64(a.bytes))
		rep.set("storage.user_bytes", float64(a.userBytes))
		rep.set("storage.disk_bytes_per_user_byte", ratio(float64(a.bytes), float64(a.userBytes)))
		rep.set("storage.tree_over_cache", float64(a.bytes)/float64(sh.PageCacheBytes))
		rep.set("gen.requests", float64(res.attempted()))
		rep.set("gen.peak_conns", float64(c.lim.Peak()))
	}
	if peak := c.lim.Peak(); peak > e.nproc {
		return nil, fmt.Errorf("generator held %d connections open, more than nproc=%d", peak, e.nproc)
	}
	return out, nil
}
