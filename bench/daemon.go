package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pmcpower/internal/serve"
)

// buildDaemon compiles cmd/pmcpowerd from the repository at root into
// dir and returns the binary's path.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pmcpowerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pmcpowerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building pmcpowerd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running pmcpowerd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{}
	waitErr error
	stopped bool
}

// startDaemon runs bin with pmcpowerd's default flags, -selfcal on a
// free loopback port, in dir (so flight-recorder dumps land there),
// and returns once /healthz answers 200, with the time that took.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(dir, "pmcpowerd.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-selfcal", "-addr", addr)
	d.cmd.Dir = dir
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting pmcpowerd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("pmcpowerd exited during start-up (%v)%s", d.waitErr, d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("pmcpowerd did not become healthy within 60 s" + d.logTail())
		}
	}
}

// stop interrupts the daemon (its graceful shutdown path) and waits
// for it to exit, killing it if it does not within ten seconds. Later
// calls are no-ops.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	select {
	case <-d.exited:
		return fmt.Errorf("pmcpowerd exited early (%v)%s", d.waitErr, d.logTail())
	default:
	}
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
		return nil
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("pmcpowerd ignored SIGINT for 10 s and was killed")
	}
}

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil || len(b) == 0 {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "\n--- pmcpowerd log tail ---\n" + string(b)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ")".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMemKB returns a /proc/<pid>/status memory field (VmRSS, VmHWM)
// in kB.
func procMemKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb := strings.TrimSuffix(strings.TrimSpace(rest), " kB")
			return strconv.ParseFloat(kb, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cpuTicks is the machine-wide CPU time in /proc/stat: the ticks the
// hypervisor stole from this machine's CPUs, and all ticks.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, errors.New("malformed /proc/stat")
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; the guest times
	// after them are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("malformed /proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealPct is the share of the machine's CPU time the hypervisor stole
// between a and b, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total) * 100
}

// scrapeMetrics sums every sample of each named family in the
// daemon's /metrics exposition (absent families read 0).
func scrapeMetrics(base string, families ...string) (map[string]float64, error) {
	resp, err := (&http.Client{Timeout: requestTimeout}).Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	want := make(map[string]bool, len(families))
	out := make(map[string]float64, len(families))
	for _, f := range families {
		want[f] = true
		out[f] = 0
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// checkModels verifies that the daemon serves exactly the bench's own
// calibration: same events in order, bit-identical R², same training
// row count.
func checkModels(base string, cal *calibration) error {
	resp, err := (&http.Client{Timeout: requestTimeout}).Get(base + "/v1/models")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var infos []serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return fmt.Errorf("/v1/models: %w", err)
	}
	if len(infos) != 1 {
		return fmt.Errorf("/v1/models lists %d models, want the one self-calibrated model", len(infos))
	}
	got := infos[0]
	if strings.Join(got.Events, ",") != strings.Join(cal.names, ",") {
		return fmt.Errorf("daemon model events %v, bench calibration %v", got.Events, cal.names)
	}
	if math.Float64bits(got.R2) != math.Float64bits(cal.model.R2()) {
		return fmt.Errorf("daemon model R² %v, bench calibration %v", got.R2, cal.model.R2())
	}
	if got.TrainN != cal.model.Fit.N {
		return fmt.Errorf("daemon model train_n %d, bench calibration %d", got.TrainN, cal.model.Fit.N)
	}
	return nil
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }
