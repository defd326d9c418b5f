package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// bulkScripts exceeds bulkCacheSize, so every bulk scan misses, inserts,
// and — past the first bulkCacheSize — evicts. Both are far below the
// 4608 scripts over the default 4096-entry cache the workload was first
// specified with: detect classifies every pipeline-bound file in one batch,
// whose embeddings held 3.7 GB at 4608 scripts, and a short invocation
// (about 1.5 s) lets a run take its medians over some twenty of them.
// Invocations rotate over bulkSets distinct script sets, so a run's figures
// cover more content than one invocation holds.
const (
	bulkScripts   = 384
	bulkCacheSize = "256"
	bulkSets      = 5
)

// detectStats is the part of `detect -stats-json` the benchmark reads.
type detectStats struct {
	Stats struct {
		Scanned, Triaged, Deobfuscated, RuleMatched, Degraded, Failed int
		Wall, P99                                                     time.Duration
	} `json:"stats"`
}

// runBulk drives bulk-cold: the detect CLI over bulkScripts distinct files,
// invoked repeatedly (each process starts with an empty cache) until the
// run's measuring time is spent.
func runBulk(e *env, seed int64, seconds float64, o *outcome) error {
	type set struct {
		scripts []script
		index   map[string]int
		args    []string
		first   []verdict
	}
	model := filepath.Join(e.work, "model.json")
	stats := filepath.Join(e.work, "stats.json")
	sets := make([]*set, bulkSets)
	for k := range sets {
		st := &set{scripts: bulkMix(seed, k), index: map[string]int{}}
		dir := filepath.Join(e.work, fmt.Sprintf("bulk%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st.args = append([]string{"detect", "-model", model, "-stats-json", stats, "-cache-size", bulkCacheSize}, e.scanFlags()...)
		for i, s := range st.scripts {
			p := filepath.Join(dir, s.Name)
			if err := os.WriteFile(p, []byte(s.Source), 0o644); err != nil {
				return err
			}
			st.index[p] = i
			st.args = append(st.args, p)
		}
		sets[k] = st
	}
	setup, err := e.setupModel(model)
	if err != nil {
		return err
	}
	o.set("setup_s", setup)

	var rates, batches, p99s, rss []float64
	var tally detectStats
	var triaged, deobbed, matched, scanned int
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	e.clock.calibrate()
	for inv := 0; inv < bulkSets || time.Now().Before(deadline); inv++ {
		st := sets[inv%bulkSets]
		var out bytes.Buffer
		ps, d, err := e.run(&out, st.args...)
		if err != nil {
			return err
		}
		e.clock.calibrate()
		rates = append(rates, float64(len(st.scripts))/d.Seconds())
		if code := ps.ExitCode(); code != 0 && code != 1 {
			o.fail(fmt.Sprintf("detect exited %d", code))
		}
		got := checkDetectOutput(&out, st.index, st.scripts, o)
		if st.first == nil {
			st.first = got
		} else {
			for i := range got {
				if got[i] != st.first[i] {
					o.fail("verdict changed between cold runs")
				}
			}
		}
		b, err := os.ReadFile(stats)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &tally); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
		if tally.Stats.Scanned != len(st.scripts) {
			o.fail(fmt.Sprintf("detect scanned %d of %d", tally.Stats.Scanned, len(st.scripts)))
		}
		batches = append(batches, float64(tally.Stats.Wall)/1e6)
		p99s = append(p99s, float64(tally.Stats.P99)/1e6)
		rss = append(rss, float64(ps.SysUsage().(*syscall.Rusage).Maxrss)/1024)
		scanned += len(st.scripts)
		triaged += tally.Stats.Triaged
		deobbed += tally.Stats.Deobfuscated
		matched += tally.Stats.RuleMatched
		o.attempted += len(st.scripts)
	}
	var c confusion
	for _, st := range sets {
		for i, v := range st.first {
			if v != verdictNone {
				c.add(st.scripts[i].Malicious, v == verdictMalicious)
			}
		}
	}
	// Each figure is the median over invocations. detect answers once per
	// invocation, so its latency is a whole batch's: the engine's scan time
	// of bulkScripts files (process start and model load, which
	// scripts_per_s counts, excluded).
	o.set("scripts_per_s", median(rates))
	o.set("latency_p50_ms", median(batches))
	o.detail("file_p99_ms", median(p99s), "ms")
	o.set("f1", c.f1())
	o.set("peak_rss_mb", median(rss))
	n := float64(scanned)
	o.detail("detect_invocations", float64(len(batches)), "count")
	o.detail("triaged_share", float64(triaged)/n, "ratio")
	o.detail("deobfuscated_share", float64(deobbed)/n, "ratio")
	o.detail("rule_matched_share", float64(matched)/n, "ratio")
	return nil
}

// bulkMix is the k-th of a run's bulk-cold script sets.
func bulkMix(seed int64, k int) []script {
	return genScripts(seed*bulkSets+int64(k), bulkScripts)
}

type verdict int8

const (
	verdictNone verdict = iota // no clean verdict
	verdictBenign
	verdictMalicious
)

// checkDetectOutput checks one detect run's stdout: exactly one verdict
// line per file, a clean verdict on each, and a deny-rule conviction on
// every IOC-bearing script. It returns the verdicts parallel to scripts.
func checkDetectOutput(out *bytes.Buffer, index map[string]int, scripts []script, o *outcome) []verdict {
	got := make([]verdict, len(scripts))
	seen := make([]bool, len(scripts))
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		path, rest, ok := strings.Cut(sc.Text(), ": ")
		i, known := index[path]
		if !ok || !known {
			o.fail("unexpected detect line")
			continue
		}
		if seen[i] {
			o.fail("duplicate detect line")
			continue
		}
		seen[i] = true
		word, hits, _ := strings.Cut(rest, " ")
		switch word {
		case "benign":
			got[i] = verdictBenign
		case "MALICIOUS":
			got[i] = verdictMalicious
		default:
			o.fail("detect verdict " + word)
			continue
		}
		if scripts[i].IOC && (got[i] != verdictMalicious || !strings.Contains(hits, denyRuleID)) {
			o.fail("IOC script not convicted by the deny list")
		}
	}
	for i := range seen {
		if !seen[i] {
			o.fail("missing detect line")
		}
	}
	return got
}
