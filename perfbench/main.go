// Command perfbench is the repository's end-to-end benchmark: raw reads to
// contigs on two assembly workloads, plus a closed-loop mix of jobs served
// over HTTP. It generates every input from --seed, measures for --seconds,
// checks every output, and prints one JSON result as its last stdout line:
// the end-to-end metrics with --trace 0, or the per-layer breakdown from a
// separately traced pass with --trace 1.
//
//	bash perfbench/run.sh --workload clr-bsp --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// result is the benchmark's report: the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are one invocation's settings.
type options struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	// scale divides every input size; the tests run at a tiny scale.
	scale int
	// spanDir receives the traced pass's spans; empty skips writing them.
	spanDir string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 32, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced pass, 0 the end-to-end metrics")
		spanDir = flag.String("spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	opt := options{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scale: 1, spanDir: *spanDir}

	host := hostContext()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v, trace %v\n", *name, opt.seed, opt.seconds, opt.trace)
	res, err := run(wl, opt, host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN or infinite metric
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host}) // finite numbers and strings only
	fmt.Println(string(hostLine))
	fmt.Println(string(line))
}

// run executes one workload and shapes its report: the declared metric set
// of the requested mode, each with its unit. A metric the workload did not
// produce is an error, never a silent zero.
func run(wl scenario, opt options, host hostInfo) (*result, error) {
	rep, err := wl.run(opt)
	if err != nil {
		return nil, err
	}
	for _, msg := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		rep.values["host.calib_ms"] = host.CalibMS
	}
	res := &result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload produced no %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// report is what a workload run hands back: its metric values by name,
// the jobs it attempted and failed, and warnings for stderr.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
