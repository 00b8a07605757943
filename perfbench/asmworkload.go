package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// assemblyWorkload runs raw reads to contigs back to back on one read set
// for the whole measuring time, each pass on a freshly set-up world.
type assemblyWorkload struct {
	reads   readSpec
	backend string // "par" or "dist"
	mode    string // align driver: "bsp" or "async"
}

// extraSetups are set-ups timed before the passes, so setup_s is a median
// of many samples even when few passes fit in the measuring time.
const extraSetups = 10

func (wl assemblyWorkload) run(opt options) (*report, error) {
	in, err := wl.reads.generate(opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	rep := &report{values: map[string]float64{}}
	var setups, walls, peaks []float64
	for range extraSetups {
		runtime.GC() // as before every pass
		start := time.Now()
		a, err := setupAssembly(in, wl.backend, wl.mode, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		a.close()
	}

	heap := startHeapSampler()
	defer heap.close()
	rng := rand.New(rand.NewSource(opt.seed))
	var ref *reference
	var busy time.Duration // set-up plus wall of every good pass
	begin := time.Now()
	for {
		// A pass starts only if one more of the average length still ends
		// within the measuring time, so a run lasts about --seconds.
		if n := time.Duration(rep.attempted); n > 0 {
			if elapsed := time.Since(begin); elapsed+elapsed/n > opt.seconds {
				break
			}
		}
		rep.attempted++
		// Every pass starts from a collected heap, as a fresh process would.
		runtime.GC()
		start := time.Now()
		a, err := setupAssembly(in, wl.backend, wl.mode, nil)
		if err != nil {
			return nil, err
		}
		setup := time.Since(start)
		heap.reset()
		out, err := a.run(nil)
		peak := heap.peakMB()
		a.close()
		if err == nil {
			err = a.checkSample(out, rng)
		}
		if err == nil && ref != nil && out.digest != ref.digest {
			err = errors.New("hits, edges or contigs differ from the first pass")
		}
		if err != nil {
			rep.failed++
			rep.notef("pass %d: %v", rep.attempted, err)
			continue
		}
		if ref == nil {
			r := out.reference()
			ref = &r
			scoreAssembly(out, in.truth).values(rep.values)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: set-up %.3fs, wall %.3fs, peak heap %.0f MB\n",
			rep.attempted, setup.Seconds(), out.wall.Seconds(), peak)
		setups = append(setups, setup.Seconds())
		walls = append(walls, out.wall.Seconds())
		peaks = append(peaks, peak)
		busy += setup + out.wall
	}
	if ref == nil {
		return nil, fmt.Errorf("no pass succeeded: %v", rep.notes)
	}

	v := rep.values
	v["wall_s"] = median(walls)
	v["job_p90_ms"] = percentile(walls, 0.9) * 1e3
	v["jobs_per_s"] = float64(len(walls)) / busy.Seconds()
	v["setup_s"] = median(setups)
	v["peak_heap_mb"] = median(peaks)
	if opt.trace {
		wl.traced(opt, in, *ref, rep)
	}
	return rep, nil
}

// traced runs one traced pass on the same reads and checks it reproduces
// the untraced output, probes that pass's world, then serves the reads as
// one job through the HTTP service. Failures count against the run.
func (wl assemblyWorkload) traced(opt options, in *readInput, ref reference, rep *report) {
	v := rep.values
	rep.attempted++
	if err := func() error {
		runtime.GC() // as before every untraced pass
		tr := newTracer()
		a, err := setupAssembly(in, wl.backend, wl.mode, tr)
		if err != nil {
			return err
		}
		defer a.close()
		out, err := a.run(tr)
		if err != nil {
			return err
		}
		if out.digest != ref.digest {
			return errors.New("traced pass: hits, edges or contigs differ from the untraced passes")
		}
		layerMetrics([]tracedPass{{tr, out}}, v)
		v["trace.overhead_frac"] = out.wall.Seconds()/v["wall_s"] - 1
		if err := probeRuntime(a.w, v); err != nil {
			return err
		}
		return tr.writeSpans(opt.spanDir, fmt.Sprintf("%s-seed%d.json", opt.name, opt.seed))
	}(); err != nil {
		rep.failed++
		rep.notef("traced pass: %v", err)
	}
	checkCoverage(rep)

	rep.attempted++
	srv, err := startServer(wl.backend)
	if err != nil {
		rep.failed++
		rep.notef("service: %v", err)
		return
	}
	res := srv.submit(in, wl.mode, ref.hitsTSV, true)
	srv.close()
	if res.err != nil {
		rep.failed++
		rep.notef("served job: %v", res.err)
	}
	serveLayer([]jobResult{res}, v)
}

// checkCoverage flags a traced pass whose stage spans miss more than 5% of
// the wall time: its per-layer numbers then leave work unaccounted.
func checkCoverage(rep *report) {
	if c, ok := rep.values["trace.stage_coverage"]; ok && c < 0.95 {
		rep.notef("WARNING: stage spans cover %.1f%% of the traced wall time, below 95%%", 100*c)
	}
}
