package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

const (
	// connections is the load generator's connection (and worker) count,
	// one per CPU of the reference machine.
	connections = 2
	// repeatWorkingSet is serve-repeat's number of distinct scripts, well
	// below the default cache capacity so every timed request hits.
	repeatWorkingSet = 1024
	// repeatWindow is about how long each stretch of serve-repeat's
	// measuring time lasts; the host is calibrated between stretches (see
	// calib.go) and each figure is the median over the stretches.
	repeatWindow = time.Second
)

// client is one load-generator connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// line is one verdict record: a /detect body, or a finished job's result
// entry in the traced run.
type line struct {
	Path      string `json:"path"`
	Verdict   string `json:"verdict"`
	Malicious *bool  `json:"malicious"`
	Tier      string `json:"tier"`
	RuleHits  []struct {
		Rule string `json:"rule"`
	} `json:"rule_hits"`
}

// check validates a record for sc and returns its verdict, or a reason.
func (l *line) check(sc *script) (verdict, string) {
	var v verdict
	switch l.Verdict {
	case "benign":
		v = verdictBenign
	case "MALICIOUS":
		v = verdictMalicious
	default:
		return verdictNone, "verdict " + l.Verdict
	}
	if l.Malicious == nil || *l.Malicious != (v == verdictMalicious) {
		return verdictNone, "malicious field missing or inconsistent"
	}
	if l.Tier == "" {
		return verdictNone, "tier missing"
	}
	if sc.IOC {
		denied := false
		for _, h := range l.RuleHits {
			denied = denied || h.Rule == denyRuleID
		}
		if v != verdictMalicious || !denied {
			return verdictNone, "IOC script not convicted by the deny list"
		}
	}
	return v, ""
}

// detect posts one script to /detect.
func (c *client) detect(name string, sc *script) (line, string) {
	status, body, err := c.do("POST", "/detect?name="+url.QueryEscape(name), []byte(sc.Source))
	if err != nil {
		return line{}, "detect: " + err.Error()
	}
	if status != http.StatusOK {
		return line{}, fmt.Sprintf("detect status %d", status)
	}
	var l line
	if err := json.Unmarshal(body, &l); err != nil {
		return line{}, "detect body not JSON"
	}
	if l.Path != name {
		return line{}, "detect path mismatch"
	}
	return l, ""
}

// batchBody encodes scripts as the NDJSON records /scan and /jobs take.
func batchBody(names []string, scs []*script) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i, sc := range scs {
		enc.Encode(struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		}{names[i], sc.Source})
	}
	return b.Bytes()
}

// verdictBook remembers the first clean verdict per script and flags any
// later verdict on the same content that differs.
type verdictBook struct {
	mu sync.Mutex
	v  []verdict
}

func (b *verdictBook) record(i int, v verdict) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.v[i] == verdictNone {
		b.v[i] = v
		return true
	}
	return b.v[i] == v
}

// runRepeat drives serve-repeat: every working-set script is sent once,
// then a closed loop over two connections cycles through the set, so each
// timed request is answered from the verdict cache.
func runRepeat(e *env, seed int64, seconds float64, o *outcome) error {
	scripts := genScripts(seed, repeatWorkingSet)
	srv, setup, err := e.setupServer(e.model())
	if err != nil {
		return err
	}
	defer srv.stop()
	o.set("setup_s", setup)
	book := &verdictBook{v: make([]verdict, len(scripts))}

	// Workers wait at each window's start, run the closed loop until its
	// end, and stop while the host is calibrated between windows.
	windows := max(1, int(time.Duration(seconds*float64(time.Second))/repeatWindow))
	ends := make([]time.Time, windows)
	starts := make([]chan struct{}, windows)
	for k := range starts {
		starts[k] = make(chan struct{})
	}
	lats := make([][][]float64, connections)
	for w := range lats {
		lats[w] = make([][]float64, windows)
	}
	sent := make([]int, connections)
	var mu sync.Mutex
	var wg, windowWG sync.WaitGroup
	windowWG.Add(connections) // priming
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(srv.addr)
			defer c.close()
			fail := func(reason string) {
				mu.Lock()
				o.fail(reason)
				mu.Unlock()
			}
			if w == 0 {
				// Prime on one connection, one script at a time, so the
				// server's memory peak does not depend on how two priming
				// streams happen to overlap.
				for i := range scripts {
					l, reason := c.detect(scripts[i].Name, &scripts[i])
					if reason == "" {
						var v verdict
						if v, reason = l.check(&scripts[i]); reason == "" {
							book.record(i, v)
						}
					}
					if reason != "" {
						fail(reason)
					}
				}
			}
			windowWG.Done()
			i := w
			for k := range starts {
				<-starts[k]
				mine := make([]float64, 0, 1<<14)
				for ; ; i = (i + connections) % len(scripts) {
					start := time.Now()
					if !start.Before(ends[k]) {
						break
					}
					sent[w]++
					l, reason := c.detect(scripts[i].Name, &scripts[i])
					lat := time.Since(start)
					if reason == "" {
						var v verdict
						if v, reason = l.check(&scripts[i]); reason == "" {
							switch {
							case l.Tier != "cache":
								reason = "timed request missed the cache"
							case !book.record(i, v):
								reason = "cached verdict differs from the first"
							}
						}
					}
					if reason != "" {
						fail(reason)
						continue
					}
					mine = append(mine, float64(lat)/1e6)
				}
				lats[w][k] = mine
				windowWG.Done()
			}
		}(w)
	}
	windowWG.Wait()
	width := time.Duration(seconds * float64(time.Second) / float64(windows))
	var rate, p50, p99 []float64
	timed := 0
	e.clock.calibrate()
	for k := range starts {
		windowWG.Add(connections)
		t0 := time.Now()
		ends[k] = t0.Add(width)
		close(starts[k])
		windowWG.Wait()
		elapsed := time.Since(t0)
		e.clock.calibrate()
		var lw []float64
		for w := range lats {
			lw = append(lw, lats[w][k]...)
		}
		timed += len(lw)
		rate = append(rate, float64(len(lw))/elapsed.Seconds())
		if len(lw) > 0 {
			p50 = append(p50, quantile(lw, 0.50))
			p99 = append(p99, quantile(lw, 0.99))
		}
	}
	wg.Wait()

	o.attempted += len(scripts)
	for _, n := range sent {
		o.attempted += n
	}
	if timed == 0 {
		return errors.New("serve-repeat completed no timed request")
	}
	var c confusion
	for i, v := range book.v {
		if v != verdictNone {
			c.add(scripts[i].Malicious, v == verdictMalicious)
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	// Every figure is the median over the windows, so one stalled window
	// does not move it.
	o.set("scripts_per_s", median(rate))
	o.set("latency_p50_ms", median(p50))
	o.detail("latency_p99_ms", median(p99), "ms")
	o.set("f1", c.f1())
	o.set("peak_rss_mb", rss)
	o.detail("timed_requests", float64(timed), "count")
	return nil
}

// sortedKeys returns m's keys in order, for stable report output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
