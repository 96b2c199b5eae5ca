package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupLaunches is how many times a run launches its servers to time
// set-up: the first setupBefore launches precede the workload, and the last
// of them serves it; the rest follow it. A launch's time follows the
// machine's speed in the second it runs, so spreading the launches over the
// run keeps their median from resting on one second.
const (
	setupLaunches = 11
	setupBefore   = 6
)

// A launch is set up once every server it started has answered the warm-up
// request: POST /run of warmupSpec at warmupSeed. A cold server builds its
// first graph, grows its heap and renders its first document there, so
// set-up time is mostly CPU work rather than exec and scheduling jitter. The
// spec runs five simulations, so a server with two execution slots runs
// them on sequential engines. A one-simulation spec runs one engine on two
// workers that meet at every round; warmed that way, serve's set-up median
// moved by 0.38 between two sets of ten runs while its wall time moved by
// 0.19. The seed lies outside every workload's ?seed= range, so the warm-up
// shares no response with the workload; the spec's graph does not depend on
// the seed, so serve and jobs find it built, as on any server that has
// answered a request.
const (
	warmupSpec = "luby-ba-seeds"
	warmupSeed = 1 << 50
)

// readyTimeout bounds one server launch.
const readyTimeout = 30 * time.Second

// proc is one started localserved process.
type proc struct {
	cmd    *exec.Cmd
	log    *stderrLog
	url    string
	done   chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after done
	maxRSS int64         // peak resident set in KiB, valid after done
	killed bool
}

// stderrLog keeps a server's standard error and announces the address from
// its "listening on" line.
type stderrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		const marker = "listening on "
		if _, rest, ok := bytes.Cut(l.buf.Bytes(), []byte(marker)); ok {
			if line, _, ok := bytes.Cut(rest, []byte("\n")); ok {
				l.sent = true
				l.addr <- string(line)
			}
		}
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer launches localserved and returns once it is set up.
func (b *bench) startServer(args ...string) (*proc, error) {
	p, err := b.spawnServer(args...)
	if err != nil {
		return nil, err
	}
	return p, b.ready(p)
}

// spawnServer starts localserved on a free loopback port without waiting
// for it.
func (b *bench) spawnServer(args ...string) (*proc, error) {
	log := &stderrLog{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(b.bin, "localserved"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, log: log, done: make(chan struct{})}
	b.procs = append(b.procs, p)
	go func() {
		p.err = cmd.Wait()
		if st := cmd.ProcessState; st != nil {
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				p.maxRSS = ru.Maxrss
			}
		}
		close(p.done)
	}()
	return p, nil
}

// ready waits until the server announces its address, then sends it the
// warm-up request.
func (b *bench) ready(p *proc) error {
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	select {
	case addr := <-p.log.addr:
		p.url = "http://" + addr
	case <-p.done:
		return fmt.Errorf("localserved exited before listening: %v\n%s", p.err, p.log)
	case <-deadline.C:
		return fmt.Errorf("localserved not listening after %v\n%s", readyTimeout, p.log)
	}
	ctx, cancel := context.WithTimeout(b.ctx, readyTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/run?seed=%d", p.url, warmupSeed)
	resp, body, err := do(ctx, warmupClient, http.MethodPost, url, b.warmup, nil)
	if err == nil {
		err = errStatus("warm-up POST /run", resp, body)
	}
	if err != nil {
		return fmt.Errorf("localserved not set up: %v\n%s", err, p.log)
	}
	return nil
}

// warmupClient keeps no connection to a launch that will be stopped.
var warmupClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// stop drains the server with SIGTERM, killing it if it has not exited
// within the drain window, and waits for it. A server that exits non-zero
// on its own is an error.
func (p *proc) stop() error {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(readyTimeout):
			p.killed = true
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	if p.killed {
		return fmt.Errorf("localserved did not drain within %v", readyTimeout)
	}
	if p.err != nil {
		return fmt.Errorf("localserved: %v\n%s", p.err, p.log)
	}
	return nil
}

// stopAll stops every server the run started and returns the first error.
func (b *bench) stopAll() error {
	var first error
	for _, p := range b.procs {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	b.procs = nil
	return first
}

// launch launches a workload's servers n times, stopping all but the last
// launch, and returns that launch with every launch's set-up time in
// seconds: from the first exec to the last server's answer to the warm-up
// request.
func (b *bench) launch(n int, start func() ([]*proc, error)) ([]*proc, []float64, error) {
	var times []float64
	var procs []*proc
	for i := 0; i < n; i++ {
		if err := stopEach(procs); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var err error
		if procs, err = start(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return procs, times, nil
}

// setupAfter times the launches that follow the workload and returns the
// median set-up time of all setupLaunches launches.
func (b *bench) setupAfter(before []float64, start func() ([]*proc, error)) (float64, error) {
	procs, after, err := b.launch(setupLaunches-len(before), start)
	if err == nil {
		err = stopEach(procs)
	}
	return median(append(before, after...)), err
}

func stopEach(procs []*proc) error {
	for _, p := range procs {
		if err := p.stop(); err != nil {
			return err
		}
	}
	return nil
}

// toolRun is one finished CLI invocation.
type toolRun struct {
	stdout []byte
	stderr string
	wall   time.Duration
	maxRSS int64 // KiB
}

// runTool runs one of the built CLIs to completion and times it. A non-zero
// exit is an error carrying the tool's standard error.
func (b *bench) runTool(name string, args ...string) (*toolRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	r := &toolRun{stdout: stdout.Bytes(), stderr: stderr.String(), wall: time.Since(t0)}
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.maxRSS = ru.Maxrss
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return r, nil
}

// expectedDoc runs localbench on one scenario of the spec copies: the
// oracle a served or journaled markdown document must equal byte for byte.
func (b *bench) expectedDoc(name string, seed int64) ([]byte, error) {
	r, err := b.runTool("localbench", "-scenarios", filepath.Join(b.specs, "scenarios"),
		"-exp", name, "-seed", fmt.Sprint(seed))
	if err != nil {
		return nil, err
	}
	return r.stdout, nil
}

// errStatus reports a non-2xx HTTP response as an operation failure.
func errStatus(op string, resp *http.Response, body []byte) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	return fmt.Errorf("%s: HTTP %d: %s", op, resp.StatusCode, strings.TrimSpace(string(body)))
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
