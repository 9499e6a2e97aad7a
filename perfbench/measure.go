package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The runtime/metrics samples the benchmark reads.
const (
	rmHeapLive   = "/gc/heap/live:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmSchedLat   = "/sched/latencies:seconds"
	rmMutexWait  = "/sync/mutex/wait/total:seconds"
)

// runtimeStats is one reading of the runtime counters the per-layer
// metrics difference across the traced phase.
type runtimeStats struct {
	gcCPU      float64
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	mutexWait  float64
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmAllocBytes}, {Name: rmAllocObjs},
		{Name: rmGCCycles}, {Name: rmMutexWait}, {Name: rmSchedLat}}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      floatOf(s[0].Value),
		allocBytes: uintOf(s[1].Value),
		allocObjs:  uintOf(s[2].Value),
		gcCycles:   uintOf(s[3].Value),
		mutexWait:  floatOf(s[4].Value),
		schedLat:   histOf(s[5].Value),
	}
}

func floatOf(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func uintOf(v metrics.Value) uint64 {
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func histOf(v metrics.Value) *metrics.Float64Histogram {
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := v.Float64Histogram()
	// metrics.Read may reuse a histogram's storage; copy it.
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// histQuantile returns the q-quantile of the counts added between a and
// b, as the upper edge of the bucket holding it (0 when nothing was
// added).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapSampler polls the live heap (as of the last GC) while the work runs
// and keeps the highest reading.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	v := uintOf(s[0].Value)
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// peakNow takes a reading and returns the peak so far in bytes.
func (h *heapSampler) peakNow() uint64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// finish stops the sampler, waits for it, takes a last reading and
// returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peakNow()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for the reported tail, highest
// first. They stop at p99 so that a gbd-mix run, with 5000 to 15000
// requests, always reports the same percentile whatever its throughput.
var tailPercentiles = []float64{99, 95, 90, 75}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, with its label. With too few samples for any
// candidate it returns the maximum, labelled "max".
func tail(xs []float64) (string, float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return "p" + strconv.FormatFloat(p, 'g', -1, 64), quantile(xs, p/100)
		}
	}
	return "max", quantile(xs, 1)
}
