package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc sends request number seq of a run and checks its answer; a non-nil
// error counts the request as failed. Sequence numbers are handed out once
// each, in order, across all clients.
type opFunc func(ctx context.Context, seq int) error

// opSample is one finished request: when it was sent, its latency (from the
// due time for an open loop, from the send for a closed one), how late an
// open loop sent it against its due time, and whether it failed.
type opSample struct {
	seq    int
	sent   time.Time
	lat    time.Duration
	lag    time.Duration
	failed bool
}

// loopStats is what a load loop observed.
type loopStats struct {
	samples []opSample
	// rate is a closed loop's completed requests per second: the sum over
	// clients of each client's requests over its own busy time, so the last
	// request of one client does not idle the others' share. An open loop's
	// rate is the one it was given.
	rate float64
}

// answered is when the request's answer arrived.
func (o opSample) answered() time.Time { return o.sent.Add(o.lat - o.lag) }

func (s loopStats) counts() (attempted, failed int64) {
	for _, o := range s.samples {
		if o.failed {
			failed++
		}
	}
	return int64(len(s.samples)), failed
}

// latenciesMs returns the successful requests' latencies in milliseconds.
func (s loopStats) latenciesMs() []float64 {
	var out []float64
	for _, o := range s.samples {
		if !o.failed {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// lagsMs returns every request's send lag in milliseconds: the open-loop
// generator's own backlog.
func (s loopStats) lagsMs() []float64 {
	out := make([]float64, len(s.samples))
	for i, o := range s.samples {
		out[i] = ms(o.lag)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs clients callers that each send their next request only
// when the previous one has answered, until d has passed. Requests in
// flight at the deadline finish and count, so no work is cut off.
func closedLoop(ctx context.Context, clients int, d time.Duration, do opFunc) loopStats {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	per := make([][]opSample, clients)
	rates := make([]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				t0 := time.Now()
				err := do(ctx, seq)
				per[c] = append(per[c], opSample{seq: seq, sent: t0, lat: time.Since(t0), failed: err != nil})
			}
			if busy := time.Since(start).Seconds(); busy > 0 {
				rates[c] = float64(len(per[c])) / busy
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{}
	for c := range per {
		st.samples = append(st.samples, per[c]...)
		st.rate += rates[c]
	}
	return st
}

// openLoop sends requests on a fixed schedule — request i is due at
// start + i/rate — for d, over at most conns connections. Each latency is
// measured from the request's due time, not from when it was sent, so a
// stall delays and charges every request scheduled behind it instead of
// silently thinning the load.
//
// One dispatcher releases each request at its due time into a queue the
// connections drain; a request waits there while every connection is busy.
func openLoop(ctx context.Context, rate float64, d time.Duration, conns int, do opFunc) loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	// The dispatcher's P stays parked with it in each nanosleep; one more P
	// keeps the connections and the server at their usual parallelism.
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + 1)
	defer runtime.GOMAXPROCS(procs)
	// Every scheduled request fits, so the dispatcher never waits for a
	// connection and the schedule holds whatever the server does.
	queue := make(chan int, n)
	start := time.Now()
	per := make([][]opSample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := range queue {
				due := start.Add(time.Duration(seq) * interval)
				sent := time.Now()
				err := do(ctx, seq)
				per[c] = append(per[c], opSample{seq: seq, sent: sent, lat: time.Since(due), lag: sent.Sub(due), failed: err != nil})
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		// The dispatcher keeps its OS thread to itself so that it can sleep
		// with the kernel's timer resolution: the runtime's own timers round
		// sub-millisecond sleeps up to about a millisecond, which would
		// swamp the latency of a cached answer. The thread is discarded when
		// this goroutine exits.
		runtime.LockOSThread()
		sharpenTimer()
		for seq := 0; seq < n && ctx.Err() == nil; seq++ {
			sleepUntil(start.Add(time.Duration(seq) * interval))
			queue <- seq
		}
	}()
	wg.Wait()
	st := loopStats{}
	for c := range per {
		st.samples = append(st.samples, per[c]...)
	}
	return st
}
