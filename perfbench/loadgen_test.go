package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime drives the open-loop generator against a
// stub handler that stalls once. The requests scheduled behind the stall
// must be charged the wait from their due time, the generator must report
// how late it ran, and it must still send every scheduled request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		stallAt = 5
		stall   = 60 * time.Millisecond
		rate    = 500.0 // one request due every 2ms
		run     = 200 * time.Millisecond
	)
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	client := ts.Client()
	do := func(ctx context.Context, seq int) error {
		resp, err := client.Get(ts.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	st := openLoop(context.Background(), rate, run, 1, do)

	if want := int(run / (2 * time.Millisecond)); len(st.samples) != want {
		t.Fatalf("sent %d requests, want all %d scheduled", len(st.samples), want)
	}
	if _, failed := st.counts(); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	bySeq := map[int]opSample{}
	for _, s := range st.samples {
		bySeq[s.seq] = s
	}
	next := bySeq[stallAt+1]
	// Due 2ms after the stalled request, it cannot be sent until the stall
	// ends: from its due time it waited nearly the whole stall.
	if min := stall - 10*time.Millisecond; next.lat < min || next.lag < min {
		t.Fatalf("request behind the stall: latency %v, lag %v; want both >= %v", next.lat, next.lag, min)
	}
	if lags := sorted(st.lagsMs()); lags[len(lags)-1] < ms(stall-10*time.Millisecond) {
		t.Fatalf("largest reported lag %.1fms, want the stall to show", lags[len(lags)-1])
	}
	last := bySeq[len(st.samples)-1]
	if last.lag > 20*time.Millisecond {
		t.Fatalf("backlog not cleared by the end: last lag %v", last.lag)
	}
}

// TestClosedLoopDrains checks that the closed loop finishes requests in
// flight at the deadline and rates each client over its own busy time.
func TestClosedLoopDrains(t *testing.T) {
	do := func(ctx context.Context, seq int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	}
	st := closedLoop(context.Background(), 2, 50*time.Millisecond, do)
	attempted, failed := st.counts()
	if attempted < 4 || failed != 0 {
		t.Fatalf("attempted %d failed %d; want at least 4 clean requests", attempted, failed)
	}
	if st.rate < 70 || st.rate > 100 {
		t.Fatalf("rate %.1f/s, want about 2 clients / 20ms = 100/s", st.rate)
	}
}
