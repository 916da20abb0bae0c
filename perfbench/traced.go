package main

// The traced run. It assembles the stack cmd/ctlogd and cmd/ctfront
// build, from the same public constructors (ctlog.Open, ctfront.New,
// ctclient.NewSubmitter, Log.Handler, Frontend.Handler), in one
// `perfbench serve` process, and wraps each layer at its interface:
// the log signer (sct.LogSigner), ctfront's backends (ctfront.Backend)
// and verifiers (sct.SCTVerifier), and every HTTP route. The program
// itself carries no tracing. The sequencer is driven by calling
// Log.PublishSTH on ctlogd's interval, as RunSequencer does.
//
// Spans (name, start, end, parent, request id) stay in memory and are
// written to a file when the orchestrator stops the server. Spans that
// cross HTTP carry their parent in the X-Perfbench-Span header; the
// signer and verifier, whose calls carry no context, find their parent
// through the submission bytes the enclosing route registered.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctfront"
	"ctrise/internal/ctlog"
	"ctrise/internal/drain"
	"ctrise/internal/sct"
)

// span is one timed call at a layer boundary.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // Unix ns
	End    int64  `json:"end"`
	Status int    `json:"status,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Items  int    `json:"items,omitempty"`
}

// recorder keeps spans in memory. IDs start above base, so generator
// and server IDs never collide.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder(base uint64) *recorder {
	r := &recorder{}
	r.next.Store(base)
	return r
}

func (r *recorder) id() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

const (
	genSpanBase    = 1 << 40
	serverSpanBase = 1 << 50
)

type spanRef struct{ id, req uint64 }

type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// submissionKey recovers the entry identity (entryKey) from an
// add-chain or add-pre-chain body.
func submissionKey(path string, body []byte) string {
	var req addChainReq
	if json.Unmarshal(body, &req) != nil || len(req.Chain) == 0 {
		return ""
	}
	data, err := base64.StdEncoding.DecodeString(req.Chain[0])
	if err != nil {
		return ""
	}
	return entryKey(strings.HasSuffix(path, "add-pre-chain"), data)
}

func certEntryKey(e sct.CertificateEntry) string {
	if e.Type == sct.PrecertLogEntryType {
		return entryKey(true, e.TBS)
	}
	return entryKey(false, e.Cert)
}

// countingWriter records the status, body bytes and, for get-entries,
// the number of entries a handler wrote.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
	items  int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	w.items += bytes.Count(p, []byte(`"leaf_input"`))
	return w.ResponseWriter.Write(p)
}

// traceRoutes wraps an API handler: each request to a path in names
// gets a span of that name. For submissions, reg maps the entry
// identity to the span while the handler runs.
func traceRoutes(rec *recorder, names map[string]string, reg *sync.Map, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := names[r.URL.Path]
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64) // absent: a root span
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		ref := spanRef{id: rec.id(), req: req}
		start := time.Now()
		var key string
		if reg != nil && r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "perfbench: reading body", http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if key = submissionKey(r.URL.Path, body); key != "" {
				reg.Store(key, ref)
			}
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
		if key != "" {
			reg.Delete(key)
		}
		rec.add(span{ID: ref.id, Parent: parent, Req: req, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano(),
			Status: cw.status, Bytes: cw.n, Items: cw.items})
	})
}

// traceTransport forwards the caller's span as trace headers, so the
// backend's route span parents on ctfront's backend span.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref := refFrom(req.Context()); ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(hdrSpan, strconv.FormatUint(ref.id, 10))
		req.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedBackend wraps a ctfront backend: one span per submission
// attempt (the ctclient round trip).
type tracedBackend struct {
	inner *ctclient.Submitter
	rec   *recorder
}

func (b tracedBackend) Name() string { return b.inner.Name() }

func (b tracedBackend) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	return b.call(ctx, func(ctx context.Context) (*sct.SignedCertificateTimestamp, error) { return b.inner.AddChain(ctx, cert) })
}

func (b tracedBackend) AddPreChain(ctx context.Context, ikh [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	return b.call(ctx, func(ctx context.Context) (*sct.SignedCertificateTimestamp, error) {
		return b.inner.AddPreChain(ctx, ikh, tbs)
	})
}

func (b tracedBackend) call(ctx context.Context, fn func(context.Context) (*sct.SignedCertificateTimestamp, error)) (*sct.SignedCertificateTimestamp, error) {
	parent := refFrom(ctx)
	ref := spanRef{id: b.rec.id(), req: parent.req}
	start := time.Now()
	s, err := fn(context.WithValue(ctx, spanKey{}, ref))
	status := http.StatusOK
	if err != nil {
		status = http.StatusServiceUnavailable
	}
	b.rec.add(span{ID: ref.id, Parent: parent.id, Req: parent.req, Name: "ctfront.backend", Start: start.UnixNano(), End: time.Now().UnixNano(), Status: status})
	return s, err
}

// tracedVerifier wraps ctfront's per-backend SCT verifier.
type tracedVerifier struct {
	sct.SCTVerifier
	rec *recorder
	reg *sync.Map // entry identity -> ctfront.handle span
}

func (v tracedVerifier) VerifySCT(s *sct.SignedCertificateTimestamp, e sct.CertificateEntry) error {
	var parent spanRef
	if ref, ok := v.reg.Load(certEntryKey(e)); ok {
		parent = ref.(spanRef)
	}
	start := time.Now()
	err := v.SCTVerifier.VerifySCT(s, e)
	v.rec.add(span{ID: v.rec.id(), Parent: parent.id, Req: parent.req, Name: "ctfront.verify", Start: start.UnixNano(), End: time.Now().UnixNano()})
	return err
}

// tracedSigner wraps a log's signer: SCT creation parents on the add
// route span, tree-head signing on the running publish.
type tracedSigner struct {
	sct.LogSigner
	rec     *recorder
	reg     *sync.Map // entry identity -> ctlog.add span
	publish *atomic.Uint64
}

func (s tracedSigner) CreateSCT(ts uint64, e sct.CertificateEntry) (*sct.SignedCertificateTimestamp, error) {
	var parent spanRef
	if ref, ok := s.reg.Load(certEntryKey(e)); ok {
		parent = ref.(spanRef)
	}
	start := time.Now()
	out, err := s.LogSigner.CreateSCT(ts, e)
	s.rec.add(span{ID: s.rec.id(), Parent: parent.id, Req: parent.req, Name: "sct.create", Start: start.UnixNano(), End: time.Now().UnixNano()})
	return out, err
}

func (s tracedSigner) SignTreeHead(th sct.TreeHead) (sct.DigitallySigned, error) {
	start := time.Now()
	out, err := s.LogSigner.SignTreeHead(th)
	s.rec.add(span{ID: s.rec.id(), Parent: s.publish.Load(), Name: "sct.sign_sth", Start: start.UnixNano(), End: time.Now().UnixNano()})
	return out, err
}

var logRoutes = map[string]string{
	"/ct/v1/add-chain":           "ctlog.add",
	"/ct/v1/add-pre-chain":       "ctlog.add",
	"/ct/v1/get-sth":             "ctlog.sth",
	"/ct/v1/get-sth-consistency": "ctlog.consistency",
	"/ct/v1/get-proof-by-hash":   "ctlog.proof",
	"/ct/v1/get-entries":         "ctlog.entries",
}

var frontRoutes = map[string]string{
	"/ctfront/v1/add-chain":     "ctfront.handle",
	"/ctfront/v1/add-pre-chain": "ctfront.handle",
}

// servedLog is one traced log inside the serve process.
type servedLog struct {
	name, operator string
	log            *ctlog.Log
	srv            *http.Server
	url            string
	keyPath        string
	publish        atomic.Uint64
	stop           chan struct{}
	done           chan struct{}
}

// readyLine is what `perfbench serve` prints once it is listening.
type readyLine struct {
	Logs  []readyLog `json:"logs"`
	Front string     `json:"front,omitempty"`
	Ctl   string     `json:"ctl"`
	OpenS float64    `json:"open_s"`
}

type readyLog struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	KeyPath string `json:"key_path"`
}

// logSample is one log's counters at a phase boundary.
type logSample struct {
	Name         string `json:"name"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	Pending      int    `json:"pending"`
	TiledThrough uint64 `json:"tiled_through"`
	Rejected     uint64 `json:"rejected"`
}

type sample struct {
	Logs      []logSample            `json:"logs"`
	Admission ctfront.AdmissionStats `json:"admission"`
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// writeKey creates a fresh ECDSA P-256 key in dir/key.der, the file
// ctlogd would create, and returns its signer.
func writeKey(dir string) (*sct.Signer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "key.der"), der, 0o600); err != nil {
		return nil, err
	}
	return sct.NewSignerFromKey(priv), nil
}

func readKey(dir string) (*sct.Signer, error) {
	der, err := os.ReadFile(filepath.Join(dir, "key.der"))
	if err != nil {
		return nil, err
	}
	priv, err := x509.ParseECPrivateKey(der)
	if err != nil {
		return nil, err
	}
	return sct.NewSignerFromKey(priv), nil
}

// serveMain runs the traced stack until the orchestrator posts
// /ctl/stop (or a signal arrives), then writes the spans.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	mode := fs.String("mode", "issue", "issue: two fresh logs behind ctfront; audit: one existing log")
	dir := fs.String("dir", "", "data directory")
	cfg := ctlog.Config{}
	fs.Int64Var(&cfg.PageCacheBytes, "page-cache", 0, "tile page-cache budget in bytes (0 = default)")
	fs.IntVar(&cfg.TileSpan, "tile-span", 0, "entries per sealed tile (0 = default)")
	interval := fs.Duration("sequence", time.Second, "sequencer interval")
	spansPath := fs.String("spans", "", "file the spans are written to at exit")
	_ = fs.Parse(args) // ExitOnError
	if err := serve(*mode, *dir, cfg, *interval, *spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

// serve runs the traced stack; base carries the storage settings every
// log gets.
func serve(mode, dir string, base ctlog.Config, interval time.Duration, spansPath string) error {
	rec := newRecorder(serverSpanBase)
	type logSpec struct {
		name, operator, dir string
		google, fresh       bool
	}
	var specs []logSpec
	switch mode {
	case "issue":
		specs = []logSpec{
			{"bench-a", "Google", filepath.Join(dir, "a"), true, true},
			{"bench-b", "Indie", filepath.Join(dir, "b"), false, true},
		}
	case "audit":
		specs = []logSpec{{"bench-audit", "Google", dir, true, false}}
	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}

	var logs []*servedLog
	var openTime time.Duration
	defer func() {
		for _, sl := range logs {
			_ = sl.log.Close() // error path only; the clean path closes and checks below
		}
	}()
	for _, sp := range specs {
		var signer *sct.Signer
		var err error
		if sp.fresh {
			signer, err = writeKey(sp.dir)
		} else {
			signer, err = readKey(sp.dir)
		}
		if err != nil {
			return fmt.Errorf("%s key: %w", sp.name, err)
		}
		sl := &servedLog{name: sp.name, operator: sp.operator, keyPath: filepath.Join(sp.dir, "key.der"),
			stop: make(chan struct{}), done: make(chan struct{})}
		reg := &sync.Map{}
		ts := tracedSigner{LogSigner: signer, rec: rec, reg: reg, publish: &sl.publish}
		cfg := base
		cfg.Name, cfg.Operator, cfg.Signer = sp.name, sp.operator, ts
		t0 := time.Now()
		l, err := ctlog.Open(sp.dir, cfg)
		if err != nil {
			return fmt.Errorf("opening %s: %w", sp.name, err)
		}
		openTime += time.Since(t0)
		sl.log = l
		logs = append(logs, sl)
		ln, u, err := listen()
		if err != nil {
			return err
		}
		sl.url = u
		mux := http.NewServeMux()
		mux.Handle("/ct/v1/", traceRoutes(rec, logRoutes, reg, l.Handler()))
		sl.srv = &http.Server{Handler: drain.NewGate(mux, nil, time.Second)}
		go sl.srv.Serve(ln) // its error is ErrServerClosed, at shutdown
		go sl.sequence(rec, interval)
	}

	ready := readyLine{OpenS: openTime.Seconds()}
	for _, sl := range logs {
		ready.Logs = append(ready.Logs, readyLog{Name: sl.name, URL: sl.url, KeyPath: sl.keyPath})
	}
	var front *ctfront.Frontend
	var frontSrv *http.Server
	if mode == "issue" {
		frontReg := &sync.Map{}
		hc := &http.Client{Transport: traceTransport{base: http.DefaultTransport}}
		var backends []ctfront.BackendSpec
		for i, sl := range logs {
			v, err := sct.ParseKeySpec(sl.name, "keyfile:"+sl.keyPath)
			if err != nil {
				return err
			}
			c := ctclient.New(sl.url, nil)
			c.HTTPClient = hc
			backends = append(backends, ctfront.BackendSpec{
				Backend:        tracedBackend{inner: ctclient.NewSubmitter(sl.name, c), rec: rec},
				Operator:       sl.operator,
				GoogleOperated: specs[i].google,
				Verifier:       tracedVerifier{SCTVerifier: v, rec: rec, reg: frontReg},
			})
		}
		// cmd/ctfront's flag defaults.
		f, err := ctfront.New(ctfront.Config{
			Backends: backends, Seed: 1, Timeout: 10 * time.Second,
			BackoffBase: time.Second, BackoffMax: 5 * time.Minute,
			MaxSubmitPasses: 3, RetryPause: 250 * time.Millisecond, RetryAfter: time.Second,
		})
		if err != nil {
			return err
		}
		front = f
		ln, u, err := listen()
		if err != nil {
			return err
		}
		ready.Front = u
		frontSrv = &http.Server{Handler: traceRoutes(rec, frontRoutes, frontReg, f.Handler())}
		go frontSrv.Serve(ln) // its error is ErrServerClosed, at shutdown
	}

	stopReq := make(chan struct{})
	var stopOnce sync.Once
	written := make(chan error, 1)
	ctl := http.NewServeMux()
	sampled := logs // logs is cleared at shutdown; the handler keeps its own copy
	ctl.HandleFunc("GET /ctl/sample", func(w http.ResponseWriter, _ *http.Request) {
		var s sample
		for _, sl := range sampled {
			cs := sl.log.CacheStats()
			s.Logs = append(s.Logs, logSample{Name: sl.name, Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
				Pending: sl.log.PendingCount(), TiledThrough: sl.log.TiledThrough(), Rejected: sl.log.Rejected()})
		}
		if front != nil {
			s.Admission = front.AdmissionStats()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s) // a broken control connection fails the caller's decode
	})
	ctl.HandleFunc("POST /ctl/stop", func(w http.ResponseWriter, _ *http.Request) {
		stopOnce.Do(func() { close(stopReq) })
		if err := <-written; err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "stopped")
	})
	ctlLn, ctlURL, err := listen()
	if err != nil {
		return err
	}
	ready.Ctl = ctlURL
	ctlSrv := &http.Server{Handler: ctl}
	go ctlSrv.Serve(ctlLn) // its error is ErrServerClosed, at shutdown

	line, err := json.Marshal(ready)
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stopReq:
	case <-sig:
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if frontSrv != nil {
		errs = append(errs, frontSrv.Shutdown(shutCtx))
	}
	for _, sl := range logs {
		errs = append(errs, sl.srv.Shutdown(shutCtx))
		close(sl.stop)
		<-sl.done
	}
	for _, sl := range logs {
		errs = append(errs, sl.log.Close())
	}
	logs = nil
	if spansPath != "" {
		data, err := json.Marshal(rec.all())
		if err == nil {
			err = os.WriteFile(spansPath, data, 0o644)
		}
		errs = append(errs, err)
	}
	werr := errors.Join(errs...)
	written <- werr
	_ = ctlSrv.Shutdown(shutCtx) // waits for the stop handler's answer
	return werr
}

// sequence publishes on every tick, like RunSequencer, recording the
// pending batch size as the publish span's items.
func (sl *servedLog) sequence(rec *recorder, interval time.Duration) {
	defer close(sl.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	publish := func() {
		id := rec.id()
		sl.publish.Store(id)
		pending := sl.log.PendingCount()
		start := time.Now()
		_, err := sl.log.PublishSTH()
		status := http.StatusOK
		if err != nil {
			status = http.StatusInternalServerError
			fmt.Fprintf(os.Stderr, "perfbench serve: %s publish: %v\n", sl.name, err)
		}
		rec.add(span{ID: id, Name: "ctlog.publish", Start: start.UnixNano(), End: time.Now().UnixNano(), Status: status, Items: pending})
	}
	for {
		select {
		case <-sl.stop:
			publish()
			return
		case <-t.C:
			publish()
		}
	}
}

// served is the orchestrator's handle on a `perfbench serve` process.
type served struct {
	p     *proc
	ready readyLine
	spans string
	hc    *http.Client
}

// startServed launches the traced server and waits for its ready line.
func startServed(ctx context.Context, e *env, mode, dir string, pageCache int64) (*served, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(e.work, "spans-"+mode+".json")
	p, err := e.procs.start("perfbench serve", filepath.Join(e.bin, "perfbench"), w, "serve", "-mode", mode, "-dir", dir,
		"-page-cache", strconv.FormatInt(pageCache, 10), "-tile-span", strconv.Itoa(e.shape.Daemons.TileSpan),
		"-sequence", e.shape.sequence.String(), "-spans", spans)
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, r) // drain until the child exits
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			return nil, fmt.Errorf("perfbench serve exited before it was ready: %s", p.out.String())
		}
		// Control calls come between phases; closing their connection
		// at once keeps the load's connection budget intact.
		ctl := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
		s := &served{p: p, spans: spans, hc: ctl}
		if err := json.Unmarshal([]byte(line), &s.ready); err != nil {
			return nil, fmt.Errorf("perfbench serve ready line %q: %w", line, err)
		}
		return s, nil
	case <-time.After(60 * time.Second):
		return nil, errors.New("perfbench serve not ready after 60s")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *served) sample(ctx context.Context) (sample, error) {
	var out sample
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ready.Ctl+"/ctl/sample", nil)
	if err != nil {
		return out, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decoding sample: %w", err)
	}
	return out, nil
}

// stop shuts the traced server down (final publish, logs closed) and
// returns its spans.
func (s *served) stop(ctx context.Context) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ready.Ctl+"/ctl/stop", nil)
	if err != nil {
		return nil, err
	}
	s.p.stopping.Store(true)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body) // diagnostic text only
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("perfbench serve stop: %s", bytes.TrimSpace(body))
	}
	s.p.stop(10 * time.Second)
	data, err := os.ReadFile(s.spans)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("decoding spans: %w", err)
	}
	return spans, nil
}
