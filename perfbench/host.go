package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/genome"
)

// hostInfo is printed with every report: wall-clock numbers from a shared
// 2-core box mean little without it.
type hostInfo struct {
	CalibMS      float64 `json:"calib_ms"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	RanksPerCore float64 `json:"ranks_per_core"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
}

func hostContext() hostInfo {
	h := hostInfo{
		CalibMS:    calibrate(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	h.RanksPerCore = float64(ranks) / float64(h.NumCPU)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibrate times a fixed X-drop alignment on one goroutine: a 10 kb read
// against a copy with every seventh base substituted, 20 times over. It
// returns the median of five such runs in milliseconds.
func calibrate() float64 {
	a := genome.Generate(genome.Config{Length: 10_000, Seed: 42})
	b := a.Clone()
	for i := 3; i < len(b); i += 7 {
		b[i] = (b[i] + 1) % 4
	}
	ws := align.NewWorkspace()
	var ms []float64
	for range 5 {
		start := time.Now()
		for range 20 {
			if _, err := ws.SeedExtend(a, b, 0, 0, 3, align.DefaultScoring(), xdrop); err != nil {
				panic(err) // fixed valid inputs
			}
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}
