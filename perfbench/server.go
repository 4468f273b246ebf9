package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"sisyphus/internal/artifact"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/serve"
)

// server is the sisyphusd handler on a loopback listener, with a client
// limited to the benchmark's connection budget.
type server struct {
	store  *artifact.Store
	api    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
}

// startServer serves the API over store with a pool of width clients, to at
// most clients connections. A nil rec serves untraced.
func startServer(clients int, store *artifact.Store, rec *obs.Recorder) *server {
	api := serve.New(serve.Config{Store: store, Pool: parallel.NewPool(clients), Recorder: rec})
	ts := httptest.NewServer(api.Handler())
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &server{store: store, api: api, ts: ts, tr: tr, client: &http.Client{Transport: tr}}
}

// close stops the listener after the requests in flight have finished.
func (s *server) close() {
	s.tr.CloseIdleConnections()
	s.ts.Close()
}

// do sends one request and returns the status and body.
func (s *server) do(ctx context.Context, method, path, accept, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// encodeDoc renders a result as the CLI's -json mode and the server do:
// two-space indent and the trailing newline Encode appends.
func encodeDoc(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// failLog prints the first few failed checks of a run and counts the rest.
type failLog struct {
	w    io.Writer
	mu   sync.Mutex
	seen int
}

const failLogMax = 5

// errorf records a failed check and returns it as an error.
func (l *failLog) errorf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if l.seen <= failLogMax {
		fmt.Fprintf(l.w, "perfbench: check failed: %v\n", err)
	}
	return err
}
