package main

import (
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// percentile interpolates linearly between the closest ranks (p in [0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// heapSampler polls the live Go heap, as the last GC marked it, and keeps
// the peak since the last reset. Live bytes rather than all heap objects:
// the latter swing with where a sample falls in the GC cycle.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			cur := sample[0].Value.Uint64()
			for {
				old := h.peak.Load()
				if cur <= old || h.peak.CompareAndSwap(old, cur) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset starts a new peak window.
func (h *heapSampler) reset() { h.peak.Store(0) }

// peakMB is the highest heap seen since the last reset, in MB (1e6 bytes).
func (h *heapSampler) peakMB() float64 { return float64(h.peak.Load()) / 1e6 }

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
