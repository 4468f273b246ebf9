package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime metric names the benchmark reads; all exist since Go 1.21.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// rtSample is one reading of the process-wide counters a window differences.
type rtSample struct {
	at         time.Time
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	procCPU    time.Duration // user + system, from getrusage
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only zero the CPU metrics, never the checked outputs.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rtSample{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// window measures the process between open and close: allocation, CPU and
// the live heap after each GC cycle, sampled every heapEvery.
type window struct {
	from, to rtSample
	// cycle is the last GC cycle seen; lives holds the live heap each
	// cycle left, in bytes.
	cycle uint64
	lives []float64
	stop  chan struct{}
	done  sync.WaitGroup
}

const heapEvery = 5 * time.Millisecond

func openWindow() *window {
	w := &window{stop: make(chan struct{})}
	w.sampleHeap()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sampleHeap()
			}
		}
	}()
	w.from = readRuntime()
	return w
}

// sampleHeap records the live heap the last GC cycle marked, once per
// cycle.
func (w *window) sampleHeap() {
	s := []metrics.Sample{{Name: mLiveHeap}, {Name: mGCCycles}}
	metrics.Read(s)
	if c := s[1].Value.Uint64(); c != w.cycle || len(w.lives) == 0 {
		w.cycle = c
		w.lives = append(w.lives, float64(s[0].Value.Uint64()))
	}
}

// close ends the window and waits for the heap sampler to exit.
func (w *window) close() {
	w.to = readRuntime()
	close(w.stop)
	w.done.Wait()
	w.sampleHeap()
}

const mib = 1 << 20

func (w *window) allocMiB() float64 { return float64(w.to.allocBytes-w.from.allocBytes) / mib }
func (w *window) mallocs() float64  { return float64(w.to.allocObjs - w.from.allocObjs) }

// peakMiB is the live heap's high-water mark: the tenth-largest reading
// (the largest when there are fewer than ten), so that one cycle which
// marked an unusual amount of in-flight garbage does not set it.
func (w *window) peakMiB() float64 {
	s := sorted(w.lives)
	return s[max(len(s)-10, 0)] / mib
}

// cpuUtil is CPU time over the wall time of every usable core.
func (w *window) cpuUtil(cores int) float64 {
	wall := w.to.at.Sub(w.from.at).Seconds()
	return (w.to.procCPU - w.from.procCPU).Seconds() / (wall * float64(cores))
}

// gcCPUShare is the garbage collector's share of the CPU time spent.
func (w *window) gcCPUShare() float64 {
	cpu := (w.to.procCPU - w.from.procCPU).Seconds()
	if cpu <= 0 {
		return 0
	}
	return (w.to.gcCPU - w.from.gcCPU) / cpu
}
