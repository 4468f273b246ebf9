package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// newRecorderServer returns a Server with a live recorder, as sisyphusd
// configures when -admin is set.
func newRecorderServer(t *testing.T) *Server {
	t.Helper()
	return New(Config{Store: artifact.NewStore(), Pool: parallel.Pool{}, Recorder: obs.NewRecorder()})
}

// responseKeyStats returns the per-key stats of the single response-kind
// artifact in the store, failing if there is not exactly one.
func responseKeyStats(t *testing.T, s *Server, kind string) artifact.KeyStats {
	t.Helper()
	var found []artifact.KeyStats
	for key, st := range s.cfg.Store.PerKey() {
		if key.Kind == kind {
			found = append(found, st)
		}
	}
	if len(found) != 1 {
		t.Fatalf("store has %d %q keys, want exactly 1", len(found), kind)
	}
	return found[0]
}

// TestConcurrentIdenticalRequestsCollapse is the singleflight assertion:
// N identical concurrent requests must produce exactly one response build
// (and one underlying world build), with every response byte-identical.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	s := newTestServer(t)
	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/experiment/mlab?seed=5", nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d served different bytes than request 0", i)
		}
	}
	st := responseKeyStats(t, s, "response")
	if st.Builds != 1 {
		t.Errorf("response built %d times for %d identical requests, want 1", st.Builds, n)
	}
	if st.Hits != n-1 {
		t.Errorf("response hits = %d, want %d (joiners and later requests all hit)", st.Hits, n-1)
	}
}

// TestMixedWidthRequestsShareOneBuild pins the width-independence contract
// end to end: concurrent requests for the same document at different
// ?workers= widths must not interfere — same bytes, and one shared build,
// because width is deliberately not a response-cache coordinate.
func TestMixedWidthRequestsShareOneBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	s := newTestServer(t)
	widths := []string{"1", "2", "3", "4"}
	bodies := make([][]byte, len(widths))
	var wg sync.WaitGroup
	for i, w := range widths {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/experiment/mlab?seed=9&workers="+w, nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("width %s: status %d: %s", w, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}(i, w)
	}
	wg.Wait()
	for i := range widths {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("width %s served different bytes than width %s", widths[i], widths[0])
		}
	}
	st := responseKeyStats(t, s, "response")
	if st.Builds != 1 {
		t.Errorf("response built %d times across %d widths, want 1", st.Builds, len(widths))
	}
}

// TestCancelledRequestDoesNotPoisonStore cancels a client mid-build, checks
// the request reports the context error, then repeats the identical request
// and requires a clean success — a cancelled build must never leave a
// poisoned entry behind.
func TestCancelledRequestDoesNotPoisonStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := newTestServer(t)
	const path = "/experiment/confounding?seed=3&opts=" + `{"Hours":8760}`

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("cancelled request: status = %d, want 499 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "context canceled") {
		t.Errorf("cancelled request body %q does not surface the ctx error", rec.Body)
	}

	req = httptest.NewRequest(http.MethodGet, path, nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after cancellation: status = %d: %s", rec.Code, rec.Body)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("retry served invalid JSON: %v", err)
	}
}

// TestCancelledJoinerLeavesBuilderUnharmed starts two identical concurrent
// requests, cancels one almost immediately, and requires the survivor to
// complete normally: one client walking away must not abort the shared
// build for everyone else.
func TestCancelledJoinerLeavesBuilderUnharmed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := newTestServer(t)
	const path = "/experiment/confounding?seed=4&opts=" + `{"Hours":200}`

	var wg sync.WaitGroup
	var survivorCode, cancelledCode int
	var survivorBody []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		survivorCode, survivorBody = rec.Code, rec.Body.Bytes()
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		cancelledCode = rec.Code
	}()
	wg.Wait()
	if survivorCode != http.StatusOK {
		t.Fatalf("survivor: status = %d: %s", survivorCode, survivorBody)
	}
	if cancelledCode != 499 && cancelledCode != http.StatusOK {
		// The raced schedule may let the cancelled client finish before its
		// timer fires; both outcomes are legal, an unrelated error is not.
		t.Errorf("cancelled joiner: status = %d, want 499 (or 200 if it outran the cancel)", cancelledCode)
	}
}

// TestRequestTimeoutReturns504 pins the -request-timeout semantics: a
// request whose build exceeds the server's bound aborts within one pipeline
// stage and reports 504 with the deadline error.
func TestRequestTimeoutReturns504(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	s := New(Config{
		Store:          artifact.NewStore(),
		Pool:           parallel.Pool{},
		RequestTimeout: 60 * time.Millisecond,
	})
	rec := get(t, s, "/experiment/confounding?seed=6&opts="+`{"Hours":8760}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("timeout body %q does not mention the deadline", rec.Body)
	}
}

// TestConcurrentQueriesCollapse runs the singleflight assertion on the
// /query path: identical concurrent causal questions share one response
// build and one observational-frame simulation.
func TestConcurrentQueriesCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	s := newTestServer(t)
	const body = `{"treatment":"R","outcome":"L","hours":120,"seed":11}`
	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("query %d served different bytes than query 0", i)
		}
	}
	if st := responseKeyStats(t, s, "queryresp"); st.Builds != 1 {
		t.Errorf("query response built %d times for %d identical queries, want 1", st.Builds, n)
	}
	if st := responseKeyStats(t, s, "qframe"); st.Builds != 1 {
		t.Errorf("observational frame built %d times, want 1", st.Builds)
	}
}
