package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The machine the benchmark runs on is a share of a busy host: how fast the
// same code runs drifts by a quarter from one minute to the next, as
// neighbours come and go. So a run times a calibration job before its first
// timed stretch of the program and after each one: fixed work built only
// from the Go standard library (no code of this repository), which parses
// a fixed Go file and walks the tree, allocation-heavy work like the
// scanner's. The run's figures are scaled by the median calibration time
// relative to calibNominal; set-up time, which comes first and lasts about
// 20 s, by the calibrations around the set-ups alone. A change to the
// program moves the scaled figures in full; a slower host slows the
// program and the job alike.
const (
	// calibUnits is how many parses one calibration runs, spread over
	// `connections` goroutines (both CPUs, as the program under test uses).
	calibUnits = 96
	// calibNominal is one calibration's wall time on a quiet reference
	// machine (a 2-vCPU Xeon VM); it only sets the scale of the figures.
	calibNominal = 70 * time.Millisecond
)

// calibSource is the Go file a calibration unit parses.
var calibSource = func() string {
	var b strings.Builder
	b.WriteString("package p\n\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, `func f%d(xs []int, m map[string]int) (int, error) {
	s := 0
	for i, x := range xs {
		if x%%3 == 0 && i > %d {
			s += x * (i + 1)
		} else {
			m["k%d"] += len(xs) - i
		}
	}
	return s + m["k%d"], nil
}

`, i, i, i, i)
	}
	return b.String()
}()

// calibUnit parses calibSource and walks the tree; it returns the node
// count so none of it is elided.
func calibUnit() int {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", calibSource, 0)
	if err != nil {
		panic(err)
	}
	nodes := 0
	ast.Inspect(f, func(ast.Node) bool { nodes++; return true })
	return nodes
}

// hostClock collects one run's calibration times.
type hostClock struct{ samples []float64 }

// calibrate runs one calibration job and records its wall time. The
// goroutines take units from a shared counter, so a CPU the hypervisor
// stalls for a while leaves its share to the other instead of holding the
// whole job up.
func (h *hostClock) calibrate() {
	var wg sync.WaitGroup
	var next atomic.Int32
	t0 := time.Now()
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= calibUnits {
				calibUnit()
			}
		}()
	}
	wg.Wait()
	h.samples = append(h.samples, float64(time.Since(t0)))
}

// slowdown is how much slower than nominal the host ran over the run: the
// median calibration time over calibNominal. Single calibrations are too
// noisy to scale single stretches by; their median follows the host's
// drift between runs.
func (h *hostClock) slowdown() float64 {
	return median(h.samples) / float64(calibNominal)
}
