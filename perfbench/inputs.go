package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"gnbody/internal/genome"
	"gnbody/internal/seq"
)

// scenario is one benchmark workload.
type scenario interface {
	run(opt options) (*report, error)
}

// workloads are the benchmark's scenarios; BENCHMARK.json records why each
// was chosen. Every one runs 2 ranks in this one process.
var workloads = map[string]scenario{
	// Kernel-heavy: long noisy reads, BSP on the shared-memory runtime.
	"clr-bsp": assemblyWorkload{
		reads:   readSpec{genomeLen: 200_000, coverage: 20, meanLen: 8000, errRate: 0.15},
		backend: "par", mode: "bsp",
	},
	// Communication- and runtime-heavy: short accurate reads, async pulls
	// over the message-passing runtime on its loopback fabric.
	"hifi-async": assemblyWorkload{
		reads:   readSpec{genomeLen: 1_000_000, coverage: 6, meanLen: 2000, errRate: 0.01},
		backend: "dist", mode: "async",
	},
	// The service layer: two closed-loop HTTP clients, one bsp and one
	// async spec, over a pool of small read sets.
	"serve-mix": serveMix{
		reads:   readSpec{genomeLen: 15_000, coverage: 8, meanLen: 2000, errRate: 0.15},
		sets:    16, // 8 sets left contig_n50_bp spreading ~9% across seeds
		minJobs: 100,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

const ranks = 2

// Pipeline parameters shared by every workload: cmd/dibella's defaults
// with the BELLA reliable-frequency window derived from coverage and error.
const (
	kmerLen    = 17
	xdrop      = 15
	minScore   = 100
	slack      = 50
	minOverlap = 100
	fuzz       = 0

	// truthMinOverlap is the genomic overlap a read pair needs to count in
	// hit_recall_1kb's denominator.
	truthMinOverlap = 1000
)

// readSpec sizes one synthetic read set.
type readSpec struct {
	genomeLen int
	coverage  float64
	meanLen   int
	errRate   float64
}

// readInput is a generated read set as the program receives it (FASTA
// bytes), plus the layout truth only the benchmark sees.
type readInput struct {
	spec  readSpec
	fasta []byte
	truth []genome.SampledRead
}

// generate draws a genome and reads from seed. scale > 1 shrinks the
// genome (never below four mean read lengths) for quick test passes.
func (s readSpec) generate(seed int64, scale int) (*readInput, error) {
	if scale > 1 {
		s.genomeLen = max(s.genomeLen/scale, 4*s.meanLen)
	}
	g := genome.Generate(genome.Config{Length: s.genomeLen, Seed: seed})
	smp, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: s.coverage, MeanLen: s.meanLen, SigmaLog: 0.35,
		Errors: errorModel(s.errRate), BothStrands: true, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("sample reads: %w", err)
	}
	reads, truth := smp.Sample()
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, reads, 0); err != nil {
		return nil, err
	}
	return &readInput{spec: s, fasta: buf.Bytes(), truth: truth}, nil
}

// errorModel splits a total per-base error rate the way cmd/genreads does.
func errorModel(rate float64) genome.ErrorModel {
	return genome.ErrorModel{
		Substitution: rate * 0.4,
		Insertion:    rate * 0.35,
		Deletion:     rate * 0.22,
		NRate:        rate * 0.03,
	}
}
