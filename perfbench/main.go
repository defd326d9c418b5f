// Command perfbench is the scanner's benchmark. It drives the jsrevealer
// binary built from the same checkout over two seeded workloads and
// prints one JSON result line; with --trace 1 it instead replays the same
// inputs in-process through each layer's public functions and reports
// per-layer figures. See README.md in this directory for the metrics, the
// workloads, and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// denyRuleID is the deny-list rule in rules/bench.json.
const denyRuleID = "bench-exfil"

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"scripts_per_s":  "1/s",
	"latency_p50_ms": "ms",
	"f1":             "ratio",
	"peak_rss_mb":    "MB",
}

// outcome collects one run's counts, metrics, and failure reasons.
type outcome struct {
	attempted, failed int
	reasons           map[string]int
	metrics           map[string]float64
	units             map[string]string
	details           []detailMetric
}

// detailMetric is a figure printed in the report but not gated, because it
// exists on one workload only (e.g. bulk-cold's tier shares) or is too
// unsteady to gate (latency_p99_ms).
type detailMetric struct {
	name, unit string
	value      float64
}

func newOutcome(units map[string]string) *outcome {
	return &outcome{reasons: map[string]int{}, metrics: map[string]float64{}, units: units}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) detail(name string, v float64, unit string) {
	o.details = append(o.details, detailMetric{name, unit, v})
}

// fail counts one failed check against the number attempted.
func (o *outcome) fail(reason string) {
	o.failed++
	o.reasons[reason]++
}

// scaleByHost turns the run's wall-clock figures into reference-host
// figures (see calib.go): times are divided by the host's slowdown f
// (setup_s by fSetup, the slowdown around the set-ups) and rates
// multiplied by it. The unscaled gated figures are kept as raw_<name>
// detail lines.
func (o *outcome) scaleByHost(f, fSetup float64) {
	scale := func(v float64, unit string) float64 {
		switch unit {
		case "s", "ms":
			return v / f
		case "1/s":
			return v * f
		}
		return v
	}
	for i, d := range o.details {
		o.details[i].value = scale(d.value, d.unit)
	}
	for _, name := range sortedKeys(o.metrics) {
		v, unit := o.metrics[name], o.units[name]
		s := scale(v, unit)
		if name == "setup_s" {
			s = v / fSetup
		}
		if s != v {
			o.detail("raw_"+name, v, unit)
			o.metrics[name] = s
		}
	}
	o.detail("host_slowdown", f, "ratio")
	o.detail("setup_host_slowdown", fSetup, "ratio")
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report lines and, last, the JSON result.
func (o *outcome) print(workload string) error {
	for _, d := range o.details {
		fmt.Printf("# %s %s %.6g %s\n", workload, d.name, d.value, d.unit)
	}
	for _, r := range sortedKeys(o.reasons) {
		fmt.Fprintf(os.Stderr, "perfbench: %d× %s\n", o.reasons[r], r)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Failed: o.failed, Attempted: o.attempted, Metrics: map[string]metricJSON{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	out.Correct = o.failed == 0
	for name, unit := range o.units {
		v, ok := o.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metricJSON{v, unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuSteal reads the machine's cumulative steal and total CPU ticks, so a
// run can report how much CPU the hypervisor took from it: time-based
// figures of runs with a large steal share are not comparable.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// model is where a run keeps its trained model.
func (e *env) model() string { return filepath.Join(e.work, "model.json") }

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "bulk-cold or serve-repeat")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same scripts and requests")
	seconds := flag.Float64("seconds", 10, "measuring time per run")
	traced := flag.Int("trace", 0, "1 replays the inputs in-process layer by layer and reports per-layer metrics")
	bin := flag.String("bin", "", "jsrevealer binary under test")
	rulesDir := flag.String("rules", "", "rule directory handed to the program")
	workRoot := flag.String("work", "", "directory for per-run scratch files and span dumps")
	flag.Parse()
	switch *workload {
	case "bulk-cold", "serve-repeat":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *bin == "" || *rulesDir == "" || *workRoot == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -bin, -rules, -work, and a positive -seconds are required")
		return 2
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workRoot, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	log, err := os.Create(filepath.Join(work, "children.log"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer log.Close()
	e := &env{bin: *bin, rulesDir: *rulesDir, work: work, log: log}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.RemoveAll(work)
		os.Exit(1)
	}()
	defer killChildren()

	steal0, total0 := cpuSteal()
	var o *outcome
	if *traced == 1 {
		o = newOutcome(layerUnits)
		err = runTraced(e, *workload, *seed, *seconds, filepath.Join(*workRoot, "spans-"+*workload+".jsonl"), o)
	} else {
		o = newOutcome(e2eUnits)
		switch *workload {
		case "bulk-cold":
			err = runBulk(e, *seed, *seconds, o)
		case "serve-repeat":
			err = runRepeat(e, *seed, *seconds, o)
		}
	}
	killChildren()
	if err == nil && *traced == 0 {
		o.scaleByHost(e.clock.slowdown(), e.setupCal.slowdown())
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		o.detail("cpu_steal_share", float64(steal1-steal0)/float64(total1-total0), "ratio")
	}
	if err == nil {
		err = o.print(*workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if b, rerr := os.ReadFile(log.Name()); rerr == nil && len(b) > 0 {
			if len(b) > 4096 {
				b = b[len(b)-4096:]
			}
			fmt.Fprintf(os.Stderr, "perfbench: tail of child stderr:\n%s\n", b)
		}
		return 1
	}
	return 0
}
