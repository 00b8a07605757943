package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// serveMix is a closed loop of two HTTP clients against one in-process
// service (par back-end, one world of 2 ranks). Each client posts a read
// set drawn from a seeded pool, waits for its hits, then sends the next;
// one uses a bsp spec and the other an async spec, so the pool's
// same-spec batching has a choice to make. Callers of the service submit
// and then block on the result, hence the closed loop.
type serveMix struct {
	reads   readSpec
	sets    int // read sets in the pool
	minJobs int // jobs every run serves, however long that takes
}

var clientModes = []string{"bsp", "async"}

// setupSamples is how many times a run builds the service to time set-up.
// One build takes a few tenths of a millisecond with a wide spread; the
// median of 25 still moved by a third between runs, that of 100 steadied.
const setupSamples = 100

// poolSet is one read set of the pool with its batch-pipeline reference.
type poolSet struct {
	in  *readInput
	ref reference
}

func (wl serveMix) run(opt options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	v := rep.values
	pool := make([]poolSet, wl.sets)
	var q quality
	var untraced float64
	rng := rand.New(rand.NewSource(opt.seed))
	for i := range pool {
		in, err := wl.reads.generate(opt.seed*64+int64(2*i), opt.scale)
		if err != nil {
			return nil, err
		}
		// The reference runs the batch pipeline on a world of its own,
		// through contigs, so the pool's assembly quality is scored too.
		out, err := batchPass(in, rng)
		if err != nil {
			return nil, fmt.Errorf("reference for read set %d: %w", i, err)
		}
		pool[i] = poolSet{in: in, ref: out.reference()}
		q.add(scoreAssembly(out, in.truth))
		untraced += out.wall.Seconds()
	}
	q.values(v)

	var setups []float64
	var srv *server
	for i := range setupSamples {
		start := time.Now()
		s, err := startServer("par")
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupSamples-1 {
			s.close()
		} else {
			srv = s
		}
	}
	v["setup_s"] = median(setups)

	runtime.GC()
	heap := startHeapSampler()
	stopPeaks := secondPeaks(heap)
	results, elapsed := wl.loop(srv, pool, opt)
	peaks := stopPeaks()
	if len(peaks) == 0 { // a loop shorter than a second
		peaks = []float64{heap.peakMB()}
	}
	v["peak_heap_mb"] = median(peaks)
	heap.close()
	srv.close()

	var lat []float64
	for _, r := range results {
		rep.attempted++
		if r.err != nil {
			rep.failed++
			continue
		}
		lat = append(lat, r.latency.Seconds())
	}
	if rep.failed > 0 {
		rep.notef("%d of %d jobs failed: %v", rep.failed, rep.attempted, errorsOf(results))
	}
	v["wall_s"] = median(lat)
	v["job_p90_ms"] = percentile(lat, 0.9) * 1e3
	v["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()

	if opt.trace {
		serveLayer(results, v)
		wl.traced(opt, pool, untraced, rep)
	}
	return rep, nil
}

// secondPeaks records the heap's peak in every whole second until stop,
// which returns them. The peak of a whole served loop is the extreme of a
// noisy series and spread 14% across runs; the median of one-second
// peaks reads the same run after run.
func secondPeaks(heap *heapSampler) (stop func() []float64) {
	var peaks []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		heap.reset()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peaks = append(peaks, heap.peakMB())
				heap.reset()
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return peaks
	}
}

// loop runs the two clients until the measuring time is up and at least
// minJobs jobs have been served, and returns every job in finishing order.
func (wl serveMix) loop(srv *server, pool []poolSet, opt options) ([]jobResult, time.Duration) {
	var (
		mu      sync.Mutex
		results []jobResult
		wg      sync.WaitGroup
	)
	minJobs := max(wl.minJobs/opt.scale, 1)
	begin := time.Now()
	for c, mode := range clientModes {
		wg.Add(1)
		go func(c int, mode string) {
			defer wg.Done()
			// Each client takes the pool in seeded random rounds, so every
			// read set is served about equally often in every run.
			rng := rand.New(rand.NewSource(opt.seed*16 + int64(c)))
			var round []int
			for {
				if len(round) == 0 {
					round = rng.Perm(len(pool))
				}
				ps := pool[round[0]]
				round = round[1:]
				res := srv.submit(ps.in, mode, ps.ref.hitsTSV, opt.trace)
				mu.Lock()
				results = append(results, res)
				done := len(results) >= minJobs && time.Since(begin) >= opt.seconds
				mu.Unlock()
				if done {
					return
				}
			}
		}(c, mode)
	}
	wg.Wait()
	return results, time.Since(begin)
}

// traced reruns the pool's reference assemblies with tracing on, checks
// they reproduce the untraced outputs, and probes the last one's world.
func (wl serveMix) traced(opt options, pool []poolSet, untraced float64, rep *report) {
	v := rep.values
	rep.attempted++
	err := func() error {
		var passes []tracedPass
		var traced, again float64
		for i, ps := range pool {
			runtime.GC() // as before every untraced pass
			tr := newTracer()
			a, err := setupAssembly(ps.in, "par", "bsp", tr)
			if err != nil {
				return err
			}
			out, err := a.run(tr)
			if err == nil && out.digest != ps.ref.digest {
				err = fmt.Errorf("traced reference %d: hits, edges or contigs differ from the untraced pass", i)
			}
			if err == nil && i == len(pool)-1 {
				err = probeRuntime(a.w, v)
			}
			a.close()
			if err != nil {
				return err
			}
			passes = append(passes, tracedPass{tr, out})
			traced += out.wall.Seconds()
			if err := tr.writeSpans(opt.spanDir, fmt.Sprintf("%s-seed%d-set%d.json", opt.name, opt.seed, i)); err != nil {
				return err
			}
			// A second untraced pass halves the noise in the baseline.
			out2, err := batchPass(ps.in, nil)
			if err != nil {
				return err
			}
			again += out2.wall.Seconds()
		}
		layerMetrics(passes, v)
		v["trace.overhead_frac"] = traced/((untraced+again)/2) - 1
		return nil
	}()
	if err != nil {
		rep.failed++
		rep.notef("traced reference: %v", err)
	}
	checkCoverage(rep)
}

// batchPass sets up and runs one untraced assembly of in on a fresh par
// world; a non-nil rng also checks a sample of its tasks.
func batchPass(in *readInput, rng *rand.Rand) (*assemblyOut, error) {
	runtime.GC() // every pass starts from a collected heap
	a, err := setupAssembly(in, "par", "bsp", nil)
	if err != nil {
		return nil, err
	}
	defer a.close()
	out, err := a.run(nil)
	if err == nil && rng != nil {
		err = a.checkSample(out, rng)
	}
	return out, err
}
