package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Training corpus of the model under test. The model is configuration, not
// input: every run trains the same model, and --seed varies only the
// scripts the model is asked about.
const (
	trainPerClass = "40"
	trainSeed     = "1"
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// setupCalibrations is how many calibrations run in each gap between
	// set-ups.
	setupCalibrations = 3
)

// env locates the program under test and the run's scratch space.
type env struct {
	bin      string // the jsrevealer binary built from the checkout
	rulesDir string // the benchmark's own rule set
	work     string // per-run scratch directory, removed at exit
	log      *os.File
	clock    hostClock // calibrations around the timed stretches (see calib.go)
	setupCal hostClock // calibrations around the set-ups
}

// children tracks every process the benchmark starts, each with a channel
// its reaper goroutine closes once the process has exited, so that any exit
// path can stop and reap them all.
var children struct {
	sync.Mutex
	exited map[*exec.Cmd]chan struct{}
}

// start launches cmd and a goroutine that reaps it.
func start(cmd *exec.Cmd) (chan struct{}, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	children.Lock()
	if children.exited == nil {
		children.exited = map[*exec.Cmd]chan struct{}{}
	}
	children.exited[cmd] = exited
	children.Unlock()
	go func() {
		cmd.Wait()
		children.Lock()
		delete(children.exited, cmd)
		children.Unlock()
		close(exited)
	}()
	return exited, nil
}

// killChildren kills every process still running and waits until each has
// ended.
func killChildren() {
	children.Lock()
	var waits []chan struct{}
	for cmd, exited := range children.exited {
		cmd.Process.Kill()
		waits = append(waits, exited)
	}
	children.Unlock()
	for _, w := range waits {
		<-w
	}
}

// run executes one child to completion, stdout into out (may be nil). The
// error reports only a failure to start; callers judge the exit status.
func (e *env) run(out io.Writer, args ...string) (*os.ProcessState, time.Duration, error) {
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout = out
	cmd.Stderr = e.log
	t0 := time.Now()
	exited, err := start(cmd)
	if err != nil {
		return nil, 0, err
	}
	<-exited
	return cmd.ProcessState, time.Since(t0), nil
}

// train fits the fixed benchmark model into path and returns its wall time.
func (e *env) train(path string) (time.Duration, error) {
	st, d, err := e.run(nil, "train", "-benign", trainPerClass, "-malicious", trainPerClass,
		"-seed", trainSeed, "-model", path)
	if err != nil {
		return 0, fmt.Errorf("train: %w", err)
	}
	if !st.Success() {
		return 0, fmt.Errorf("train: %s", st)
	}
	return d, nil
}

// server is a running `jsrevealer serve` child.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{}
	addr   string
}

// scanFlags are the tier settings shared by the detect CLI and the server.
func (e *env) scanFlags() []string {
	return []string{"-triage-threshold", "0.30", "-deobfuscate", "-rules-dir", e.rulesDir}
}

// startServer launches serve on a loopback port and returns once it
// answers /healthz, with the time from launch to ready.
func (e *env) startServer(model string) (*server, time.Duration, error) {
	ready := filepath.Join(e.work, "ready")
	os.Remove(ready)
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-model", model, "-ready-file", ready}, e.scanFlags()...)
	cmd := exec.Command(e.bin, args...)
	cmd.Stderr = e.log
	t0 := time.Now()
	exited, err := start(cmd)
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, exited: exited}
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, 0, errors.New("serve exited before it was ready")
		default:
		}
		if s.addr == "" {
			if b, err := os.ReadFile(ready); err == nil && len(b) > 0 {
				s.addr = string(b)
			}
		}
		if s.addr != "" {
			if resp, err := probeClient.Get("http://" + s.addr + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(t0), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("serve not ready within 60s")
}

var probeClient = &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to drain, kills it if it lingers, and reaps it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// setupServer trains and starts a server setupRepeats times, keeping the
// last one running, and returns it with the median set-up time in seconds.
// The host is calibrated before and after each (see calib.go).
func (e *env) setupServer(model string) (*server, float64, error) {
	var times []float64
	var srv *server
	e.calibrateSetup()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		td, err := e.train(model)
		if err != nil {
			return nil, 0, err
		}
		s, sd, err := e.startServer(model)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		times = append(times, (td + sd).Seconds())
		e.calibrateSetup()
	}
	return srv, median(times), nil
}

// calibrateSetup calibrates the host between set-ups, setupCalibrations
// times: set-up has few gaps, and one calibration is a noisy sample.
func (e *env) calibrateSetup() {
	for i := 0; i < setupCalibrations; i++ {
		e.setupCal.calibrate()
	}
}

// setupModel trains setupRepeats times and returns the median seconds,
// calibrating the host before and after each.
func (e *env) setupModel(model string) (float64, error) {
	var times []float64
	e.calibrateSetup()
	for i := 0; i < setupRepeats; i++ {
		td, err := e.train(model)
		if err != nil {
			return 0, err
		}
		times = append(times, td.Seconds())
		e.calibrateSetup()
	}
	return median(times), nil
}
