package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Trace headers: the generator names its request span, and the traced
// server parents its own spans on it. The untraced stack ignores them.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// connLimiter caps the TCP connections one client holds open at once,
// across every host it talks to. When a new connection is needed at the
// cap it closes the transport's idle connections and waits for a slot;
// a client whose callers keep at most `max` requests in flight can never
// deadlock on it.
type connLimiter struct {
	max   int
	tr    *http.Transport
	freed chan struct{}

	mu   sync.Mutex
	open int
	peak int
}

func (l *connLimiter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	for {
		l.mu.Lock()
		if l.open < l.max {
			l.open++
			if l.open > l.peak {
				l.peak = l.open
			}
			l.mu.Unlock()
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				l.release()
				return nil, err
			}
			return &limitedConn{Conn: c, l: l}, nil
		}
		l.mu.Unlock()
		l.tr.CloseIdleConnections()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-l.freed:
		case <-time.After(time.Millisecond):
		}
	}
}

func (l *connLimiter) release() {
	l.mu.Lock()
	l.open--
	l.mu.Unlock()
	select {
	case l.freed <- struct{}{}:
	default:
	}
}

// Peak returns the most connections that were open at once.
func (l *connLimiter) Peak() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}

type limitedConn struct {
	net.Conn
	l    *connLimiter
	once sync.Once
}

func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.l.release)
	return err
}

// client is the generator's HTTP client: keep-alive connections, at most
// maxConns of them open in total.
type client struct {
	hc  *http.Client
	lim *connLimiter
}

func newClient(maxConns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	lim := &connLimiter{max: maxConns, tr: tr, freed: make(chan struct{}, 1)}
	tr.DialContext = lim.dial
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, lim: lim}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusErr is a non-200 answer.
type statusErr struct {
	code int
	url  string
	body string
}

func (e *statusErr) Error() string {
	return fmt.Sprintf("HTTP %d from %s: %s", e.code, e.url, e.body)
}

// do sends one request and returns the body of a 200 answer. span, when
// nonzero, names the generator's request span; it goes out as both the
// parent span and the request id of the server's spans.
func (c *client) do(ctx context.Context, method, url string, body []byte, span uint64) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		id := strconv.FormatUint(span, 10)
		r.Header.Set(hdrSpan, id)
		r.Header.Set(hdrReq, id)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		if len(data) > 200 {
			data = data[:200]
		}
		return nil, &statusErr{code: resp.StatusCode, url: url, body: string(bytes.TrimSpace(data))}
	}
	return data, nil
}
