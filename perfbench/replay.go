package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ctrise/internal/experiments"
)

// The replay workload: the full ctrise paper pipeline at a fixed seed
// and scale, run back to back. Its standard output must hash to the
// digest recorded in shape.json; the timing footer goes to standard
// error and is not part of it.

// Driver settings of the replay workload (the shape is in shape.json).
const (
	replayMinRuns = 5   // pipeline runs per measured run, at least
	setupLaunches = 100 // setup_s is the median of this many launches
)

// replayRun is one ctrise execution.
type replayRun struct {
	wall       time.Duration
	firstOut   time.Duration // until the first section banner arrived
	harvested  float64
	rssMB      float64
	digest     string
	stdoutSize int
}

func (e *env) replayArgs(extra ...string) []string {
	r := &e.shape.Replay
	args := []string{"-seed", strconv.FormatInt(r.Seed, 10), "-scale", strconv.FormatFloat(r.Scale, 'g', -1, 64),
		"-domains", strconv.Itoa(r.Domains)}
	return append(args, extra...)
}

// runCtrise executes ctrise once, timing it from start to exit and to
// its first section banner.
func runCtrise(ctx context.Context, e *env, args ...string) (*replayRun, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := e.procs.startTask("ctrise", filepath.Join(e.bin, "ctrise"), w, args...)
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	out := &replayRun{}
	h := sha256.New()
	var buf bytes.Buffer
	br := bufio.NewReader(io.TeeReader(r, h))
	for {
		line, err := br.ReadString('\n')
		if out.firstOut == 0 && strings.HasPrefix(line, "=====") {
			out.firstOut = time.Since(start)
		}
		buf.WriteString(line)
		if err != nil {
			break
		}
	}
	r.Close()
	select {
	case <-p.done:
	case <-ctx.Done():
		p.stop(time.Second)
		return nil, ctx.Err()
	}
	out.wall = time.Since(start)
	if !p.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("ctrise %v: %v: %s", args, p.cmd.ProcessState, p.out.String())
	}
	out.rssMB = p.peakRSSMB()
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.stdoutSize = buf.Len()
	out.harvested = harvestedCount(buf.String())
	return out, nil
}

// harvestedCount reads "total harvested precertificates: N".
func harvestedCount(stdout string) float64 {
	const key = "total harvested precertificates: "
	i := strings.Index(stdout, key)
	if i < 0 {
		return 0
	}
	rest := stdout[i+len(key):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	n, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64) // 0 flags a changed report below
	return n
}

func runReplay(ctx context.Context, e *env, traced bool) error {
	rep := e.rep
	sh := &e.shape.Replay

	// Set-up: process start to the pipeline's first step, measured as
	// ctrise with no section selected.
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		r, err := runCtrise(ctx, e, e.replayArgs("-only", "none")...)
		if err != nil {
			return err
		}
		setups = append(setups, r.wall.Seconds())
	}
	prefix := ""
	if traced {
		prefix = "untraced."
	}
	rep.set(prefix+"setup_s", median(setups))

	check := func(r *replayRun) {
		rep.ops(1, 0)
		if r.digest != sh.StdoutSHA256 || r.harvested == 0 {
			rep.ops(0, 1)
			rep.problem("replay: stdout sha256 %s (%d bytes), recorded %s", r.digest, r.stdoutSize, sh.StdoutSHA256)
		}
	}
	minRuns := replayMinRuns
	if traced {
		minRuns = 1
	}
	var walls, firsts, rates, rss []float64
	start := time.Now()
	for len(walls) < minRuns || (!traced && time.Since(start) < e.seconds) {
		r, err := runCtrise(ctx, e, e.replayArgs()...)
		if err != nil {
			return err
		}
		check(r)
		walls = append(walls, r.wall.Seconds())
		firsts = append(firsts, r.firstOut.Seconds())
		rates = append(rates, r.harvested/r.wall.Seconds())
		rss = append(rss, r.rssMB)
	}
	wallP50, wallMax := median(walls)*1000, 0.0
	for _, w := range walls {
		wallMax = max(wallMax, w*1000)
	}
	rep.set(prefix+"op_p50_ms", wallP50)
	rep.set(prefix+"op_p99_ms", wallMax)
	rep.set(prefix+"aux_p50_ms", median(firsts)*1000)
	rep.set(prefix+"throughput_per_s", median(rates))
	rep.set(prefix+"peak_rss_mb", median(rss))
	if !traced {
		rep.show("setup_s", "s", median(setups))
		rep.show("wall_s", "s", median(walls))
		rep.show("wall_max_s", "s", wallMax/1000)
		rep.show("first_section_s", "s", median(firsts))
		rep.show("harvested_per_s", "1/s", median(rates))
		rep.show("peak_rss_mb", "MiB", median(rss))
		fmt.Printf("  replay runs: %d\n", len(walls))
		return nil
	}
	return tracedReplay(e)
}

// tracedReplay runs the pipeline in process through experiments.Suite,
// with a span around each Suite method, renders the report exactly as
// cmd/ctrise does and checks it against the recorded digest.
func tracedReplay(e *env) error {
	rep := e.rep
	sh := &e.shape.Replay
	var out bytes.Buffer
	section := func(title string) {
		fmt.Fprintf(&out, "%s\n%s\n%s\n\n", strings.Repeat("=", len(title)), title, strings.Repeat("=", len(title)))
	}
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		rep.set("experiments."+name+"_s", time.Since(t0).Seconds())
		return err
	}
	t0 := time.Now()
	s := experiments.NewSuite(experiments.Options{Seed: sh.Seed, Scale: sh.Scale, NumDomains: sh.Domains})
	if err := timed("world", func() error { _, _, err := s.World(); return err }); err != nil {
		return err
	}
	var f1 *experiments.Figure1Result
	if err := timed("figure1", func() (err error) { f1, err = s.Figure1(); return err }); err != nil {
		return err
	}
	firstSection := time.Since(t0)
	section("SECTION 2: TIMELINE OF CT LOG EVOLUTION")
	fmt.Fprintln(&out, f1.RenderFigure1a())
	fmt.Fprintln(&out, f1.RenderFigure1b())
	fmt.Fprintln(&out, f1.RenderFigure1c())
	fmt.Fprintf(&out, "total harvested precertificates: %d\n\n", f1.TotalPrecerts)

	var tr *experiments.TrafficResult
	_ = timed("traffic", func() error { tr = s.Traffic(); return nil }) // Traffic cannot fail
	section("SECTION 3.2: PASSIVE CT ADOPTION (UCB-UPLINK SHAPE)")
	fmt.Fprintln(&out, tr.RenderTotals())
	fmt.Fprintln(&out, tr.RenderFigure2())
	fmt.Fprintln(&out, tr.RenderTable1())

	var sc *experiments.ScanResult
	if err := timed("scan", func() (err error) { sc, err = s.Scan(); return err }); err != nil {
		return err
	}
	section("SECTION 3.3/3.4: ACTIVE SCAN")
	fmt.Fprintln(&out, sc.RenderSection33())
	fmt.Fprintln(&out, sc.RenderSection34())

	var s4 *experiments.Section4Result
	if err := timed("section4", func() (err error) { s4, err = s.Section4(); return err }); err != nil {
		return err
	}
	section("SECTION 4: LEAKAGE OF DNS INFORMATION")
	fmt.Fprintln(&out, s4.RenderTable2())
	fmt.Fprintln(&out, s4.RenderSection43())

	var t3 *experiments.Table3Result
	if err := timed("table3", func() (err error) { t3, err = s.Table3(); return err }); err != nil {
		return err
	}
	section("SECTION 5: DETECTING PHISHING DOMAINS")
	fmt.Fprintln(&out, t3.RenderTable3())

	var t4 *experiments.Table4Result
	if err := timed("table4", func() (err error) { t4, err = s.Table4(); return err }); err != nil {
		return err
	}
	section("SECTION 6: CT HONEYPOT")
	fmt.Fprintln(&out, t4.RenderTable4())
	wall := time.Since(t0)

	sum := sha256.Sum256(out.Bytes())
	rep.ops(1, 0)
	if d := hex.EncodeToString(sum[:]); d != sh.StdoutSHA256 {
		rep.ops(0, 1)
		rep.problem("replay (traced): report sha256 %s, recorded %s", d, sh.StdoutSHA256)
	}
	rep.set("traced.op_p50_ms", ms(wall))
	rep.set("traced.op_p99_ms", ms(wall))
	rep.set("traced.aux_p50_ms", ms(firstSection))
	// The pipeline ran inside this process, so its peak is this one's.
	rep.set("traced.peak_rss_mb", hwmMB(os.Getpid()))
	return nil
}
