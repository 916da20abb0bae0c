// Command perfbench is ctrise's benchmark of record. It runs one
// workload against the repository's own daemons at the production shape
// (perfbench/shape.json), checks every output, and prints each metric
// named in BENCHMARK.json by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// -trace 1 they are its per_layer list, measured on a second, traced
// assembly of the same stack (see traced.go). Run it through run.sh,
// which builds the daemons from the checkout first:
//
//	bash perfbench/run.sh --workload issue --seed 1 --seconds 10 --trace 0
//
// Workloads: issue (SCT issuance through ctfront, with a monitor),
// audit (proofs and get-entries over a log larger than the page cache,
// then a full crawl), replay (the ctrise paper pipeline).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

// env is what a workload run needs from the command line.
type env struct {
	bin     string // directory holding ctlogd, ctfront, ctrise, perfbench
	work    string // scratch directory of this run, removed at exit
	shape   *shape
	seed    int64
	seconds time.Duration
	conns   int // generator connections: min(shape, nproc)
	nproc   int
	procs   *procSet
	rep     *report
}

func benchMain() int {
	bin := flag.String("bin", ".bench_build/perfbench/bin", "directory with the built ctlogd, ctfront and ctrise binaries")
	shapePath := flag.String("shape", "perfbench/shape.json", "shape file")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "metric definitions")
	workDir := flag.String("work", ".bench_build/perfbench/work", "scratch directory root")
	workload := flag.String("workload", "", "issue, audit or replay")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs, err := loadMetricDefs(*benchPath)
	if err != nil {
		return fail(err)
	}
	sh, err := loadShape(*shapePath)
	if err != nil {
		return fail(err)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return fail(err)
	}
	removeStaleRuns(*workDir)
	work, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &env{
		bin:     absBin,
		work:    work,
		shape:   sh,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		conns:   min(sh.Generator.Conns, nproc),
		nproc:   nproc,
		procs:   newProcSet(cancel),
		rep:     newReport(),
	}
	defer e.procs.killAll()

	var run func(context.Context, *env, bool) error
	switch *workload {
	case "issue":
		run = runIssue
	case "audit":
		run = runAudit
	case "replay":
		run = runReplay
	default:
		return fail(fmt.Errorf("unknown -workload %q (want issue, audit or replay)", *workload))
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d conns=%d\n",
		*workload, *seed, *seconds, *trace, nproc, e.conns)
	err = run(ctx, e, *trace == 1)
	if perr := e.procs.err(); perr != nil {
		err = errors.Join(perr, err)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		return fail(err)
	}

	list := defs.EndToEnd
	if *trace == 1 {
		list = defs.PerLayer
	}
	res, err := e.rep.result(list, *trace == 1)
	if err != nil {
		return fail(err)
	}
	e.rep.printTable()
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetricDefs(path string) (*metricDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d metricDefs
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// report collects one run's counts, correctness problems and metric
// values.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string
	values    map[string]float64
	// table lists the metrics as the issue names them per workload
	// (add_p50_ms, proof_p99_ms, ...), printed for people.
	table []tableRow
}

type tableRow struct {
	name, unit string
	value      float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

// problem records a correctness failure; the first few are printed.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// show adds a row to the human-readable table.
func (r *report) show(name, unit string, v float64) {
	r.table = append(r.table, tableRow{name, unit, v})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the output object. Every end-to-end metric must have
// been measured; a per-layer metric a workload does not exercise reads
// 0.
func (r *report) result(list []metricDef, perLayer bool) (*result, error) {
	// An operation can fail more than one check (a bundle can both miss
	// the monitor and fail its proof); it still counts once.
	r.failed = min(r.failed, r.attempted)
	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	r.values["error_ratio"] = float64(r.failed) / float64(r.attempted)
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func (r *report) printTable() {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	for _, row := range r.table {
		fmt.Printf("  %-28s %14.4f %s\n", row.name, row.value, row.unit)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  [%s] %.6g\n", n, r.values[n])
	}
	fmt.Printf("  failed %d of %d attempted operations\n", r.failed, r.attempted)
}

// shape mirrors perfbench/shape.json: the production shape each
// workload runs at. The driver's own settings (warmup, set-up repeats,
// the sustained-rate search, crawl length) are constants next to their
// use.
type shape struct {
	Generator struct {
		Conns int `json:"conns"`
	} `json:"generator"`
	Daemons struct {
		TileSpan         int    `json:"tile_span"`
		SequenceInterval string `json:"sequence_interval"`
	} `json:"daemons"`
	Issue struct {
		RatePerS     float64 `json:"rate_per_s"`
		PrecertShare float64 `json:"precert_share"`
	} `json:"issue"`
	Audit struct {
		Entries        int            `json:"entries"`
		PageCacheBytes int64          `json:"page_cache_bytes"`
		RatePerS       float64        `json:"rate_per_s"`
		Mix            map[string]int `json:"mix"`
		EntriesPage    int            `json:"entries_page"`
		CrawlPage      int            `json:"crawl_page"`
	} `json:"audit"`
	Replay struct {
		Seed         int64   `json:"seed"`
		Scale        float64 `json:"scale"`
		Domains      int     `json:"domains"`
		StdoutSHA256 string  `json:"stdout_sha256"`
	} `json:"replay"`

	sequence time.Duration
}

func loadShape(path string) (*shape, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s shape
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if s.sequence, err = time.ParseDuration(s.Daemons.SequenceInterval); err != nil {
		return nil, fmt.Errorf("%s: sequence_interval: %w", path, err)
	}
	if s.Generator.Conns < 1 {
		return nil, fmt.Errorf("%s: generator.conns must be at least 1", path)
	}
	return &s, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// removeStaleRuns deletes the scratch directories of earlier runs whose
// process is gone (one that was killed outright cannot clean up after
// itself).
func removeStaleRuns(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, "run-*")) // the pattern is valid
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(d), "run-"))
		if err != nil || syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(d) // best effort; a leftover only costs disk
		}
	}
}

// dirBytes sums the sizes of the regular files under dir. Files that
// vanish during the walk count as zero.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
