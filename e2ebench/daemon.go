package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clusterSecret authenticates intra-cluster calls between the daemons
// the benchmark starts; they listen on loopback only.
const clusterSecret = "e2ebench-loopback"

// node is one loopschedd process.
type node struct {
	Name    string
	Addr    string // host:port
	Journal string // "" when the daemon runs without one
	cmd     *exec.Cmd
	exited  chan struct{}
}

func (n *node) url(path string) string { return "http://" + n.Addr + path }

// deployment is the set of daemons serving one workload run.
type deployment struct {
	Nodes []*node
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// launch starts the workload's fresh daemons of bin with state under
// dir. One node runs as a plain single daemon; more run as a cluster set
// up as in README's example: shared secret, a journal per node with the
// default "always" fsync, and periodic snapshots.
func launch(bin, dir string, w workload) (*deployment, error) {
	nodes := w.Nodes
	ports, err := freePorts(nodes)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{}
	var peers []string
	for i, p := range ports {
		n := &node{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("127.0.0.1:%d", p)}
		peers = append(peers, n.Name+"=http://"+n.Addr)
		d.Nodes = append(d.Nodes, n)
	}
	for _, n := range d.Nodes {
		args := []string{"-addr", n.Addr}
		if nodes > 1 {
			n.Journal = filepath.Join(dir, n.Name+".journal")
			args = append(args, "-node", n.Name, "-peers", strings.Join(peers, ","),
				"-cluster-secret", clusterSecret, "-journal", n.Journal,
				"-checkpoint-every", strconv.FormatInt(w.CheckpointEvery, 10))
		}
		logf, err := os.Create(filepath.Join(dir, n.Name+".log"))
		if err != nil {
			d.stop()
			return nil, err
		}
		n.cmd = exec.Command(bin, args...)
		n.cmd.Stdout, n.cmd.Stderr = logf, logf
		// A daemon must not outlive the benchmark, even one killed
		// before it could shut its deployment down.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			logf.Close()
			d.stop()
			return nil, fmt.Errorf("start %s: %w", n.Name, err)
		}
		n.exited = make(chan struct{})
		go func(n *node, logf *os.File) {
			n.cmd.Wait()
			logf.Close()
			close(n.exited)
		}(n, logf)
	}
	return d, nil
}

// errExited reports a daemon that exited before the deployment was
// ready, typically because another process took its reserved port.
var errExited = errors.New("daemon exited during start-up")

// waitReady polls until the deployment serves: a single daemon answers
// /readyz with 200; a cluster is ready when every node's /v1/cluster
// shows all nodes alive and ready, so placement can use every node from
// the first submission.
func (d *deployment) waitReady(ctx context.Context, hc *http.Client) error {
	for {
		if d.ready(ctx, hc) {
			return nil
		}
		for _, n := range d.Nodes {
			select {
			case <-n.exited:
				return fmt.Errorf("%s: %w (%v)", n.Name, errExited, n.cmd.ProcessState)
			default:
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("deployment not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *deployment) ready(ctx context.Context, hc *http.Client) bool {
	if len(d.Nodes) == 1 {
		return getStatus(ctx, hc, d.Nodes[0].url("/readyz")) == http.StatusOK
	}
	for _, n := range d.Nodes {
		var view struct {
			Nodes []struct {
				State string `json:"state"`
				Ready bool   `json:"ready"`
			} `json:"nodes"`
		}
		if getJSON(ctx, hc, n.url("/v1/cluster"), &view) != nil || len(view.Nodes) != len(d.Nodes) {
			return false
		}
		for _, row := range view.Nodes {
			if row.State != "alive" || !row.Ready {
				return false
			}
		}
	}
	return true
}

func getStatus(ctx context.Context, hc *http.Client, url string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop shuts every daemon down with SIGTERM, which drains it, and waits
// for each to exit, killing any that has not within 15 s.
func (d *deployment) stop() error {
	var errs []error
	for _, n := range d.Nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			n.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, n := range d.Nodes {
		if n.exited == nil {
			continue
		}
		select {
		case <-n.exited:
		case <-time.After(15 * time.Second):
			n.cmd.Process.Kill()
			<-n.exited
			errs = append(errs, fmt.Errorf("%s did not drain within 15s", n.Name))
		}
	}
	return errors.Join(errs...)
}

// procSample is the summed /proc view of the daemons at one instant.
type procSample struct {
	CPU   time.Duration // user + system time
	RSSKB int64         // resident set
	HWMKB int64         // peak resident set
}

// sample reads every daemon's CPU time from /proc/<pid>/stat and its
// current and peak RSS from /proc/<pid>/status.
func (d *deployment) sample() (procSample, error) {
	var s procSample
	for _, n := range d.Nodes {
		pid := n.cmd.Process.Pid
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return s, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(f) < 13 {
			return s, fmt.Errorf("short /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			return s, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		s.CPU += time.Duration(ut+st) * time.Second / clockTicks
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return s, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok || (k != "VmRSS" && k != "VmHWM") {
				continue
			}
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return s, fmt.Errorf("parse /proc/%d/status %s: %w", pid, k, err)
			}
			if k == "VmRSS" {
				s.RSSKB += kb
			} else {
				s.HWMKB += kb
			}
		}
	}
	return s, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

// hostCPU is the aggregate line of /proc/stat: total and steal ticks.
type hostCPU struct{ Total, Steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("unexpected /proc/stat layout")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		h.Total += x
		if i == 7 {
			h.Steal = x
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time the hypervisor stole between
// two readings.
func stealShare(a, b hostCPU) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// journalBytes is the summed size of the deployment's journal files.
func (d *deployment) journalBytes() int64 {
	var total int64
	for _, n := range d.Nodes {
		if n.Journal == "" {
			continue
		}
		if fi, err := os.Stat(n.Journal); err == nil {
			total += fi.Size()
		}
	}
	return total
}
