package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// node is one priveletd process: a release-serving node or a router.
type node struct {
	name string
	addr string
	dir  string
	args []string
	cmd  *exec.Cmd
	// probe marks the benchmark's own probe nodes, whose memory is not
	// the workload's: node_peak_rss_mb leaves them out.
	probe bool
}

func (n *node) url() string { return "http://" + n.addr }

// env owns the run's processes and scratch directory. Every process it
// starts is stopped and waited for by close.
type env struct {
	bin    string
	root   string
	client *http.Client

	mu     sync.Mutex
	live   map[*node]bool
	peakKB int64
}

func newEnv(bin, root string) (*env, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("priveletd binary: %w", err)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	tr := &http.Transport{
		// The load generator holds at most two connections per host,
		// one per client goroutine (the machine has two cores).
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &env{bin: bin, root: root, client: &http.Client{Transport: tr}, live: map[*node]bool{}}, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newNode prepares a node with its own store directory and operator
// flags only; the shipped defaults are left alone.
func (e *env) newNode(name string, extra ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-store-dir", dir}, extra...)
	return &node{name: name, addr: addr, dir: dir, args: args}, nil
}

// newRouter prepares a routing-tier process.
func (e *env) newRouter(extra ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &node{name: "router", addr: addr, args: append([]string{"-route", "-addr", addr}, extra...)}, nil
}

// start launches the process without waiting for it to be ready.
func (e *env) start(n *node) error {
	cmd := exec.Command(e.bin, n.args...)
	// The node dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	n.cmd = cmd
	e.mu.Lock()
	e.live[n] = true
	e.mu.Unlock()
	return nil
}

// boot starts the process and waits until it is ready.
func (e *env) boot(n *node) error {
	if err := e.start(n); err != nil {
		return err
	}
	return e.ready(n)
}

// ready waits until the process's /readyz answers 200.
func (e *env) ready(n *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := e.client.Get(n.url() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become ready", n.name)
}

// stop records the process's peak resident set, then terminates it and
// waits for it to exit.
func (e *env) stop(n *node) {
	e.mu.Lock()
	running := e.live[n]
	delete(e.live, n)
	e.mu.Unlock()
	if !running {
		return
	}
	if kb := vmHWM(n.cmd.Process.Pid); kb > 0 && !n.probe {
		e.mu.Lock()
		e.peakKB = max(e.peakKB, kb)
		e.mu.Unlock()
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	_ = n.cmd.Wait()
	e.client.CloseIdleConnections()
}

// close stops every live process and removes the scratch directory.
func (e *env) close() {
	e.mu.Lock()
	nodes := make([]*node, 0, len(e.live))
	for n := range e.live {
		nodes = append(nodes, n)
	}
	e.mu.Unlock()
	for _, n := range nodes {
		e.stop(n)
	}
	_ = os.RemoveAll(e.root)
}

// peakRSSMB is the highest VmHWM seen over the stopped server
// processes, probe nodes aside.
func (e *env) peakRSSMB() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return float64(e.peakKB) / 1024
}

// vmHWM reads a process's peak resident set size in kB (0 if unknown).
func vmHWM(pid int) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (s *statusError) Error() string { return fmt.Sprintf("status %d: %s", s.code, s.body) }

// mismatch is a served answer that differs from the in-process
// reference, or an ε balance that differs from the sum of the charges.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "wrong answer: " + m.msg }

// call sends a request and decodes a 2xx JSON body into out (when
// non-nil); any other status is a statusError.
func (e *env) call(method, u string, body []byte, hdr http.Header, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// count asks base for one range count and checks it against want.
func (e *env) count(base, id, spec string, want float64, hdr http.Header) error {
	var got struct {
		Count float64 `json:"count"`
	}
	if err := e.call("GET", base+"/releases/"+url.PathEscape(id)+"/count?q="+url.QueryEscape(spec), nil, hdr, &got); err != nil {
		return err
	}
	if got.Count != want {
		return &mismatch{fmt.Sprintf("%s count %q = %v, reference %v", id, spec, got.Count, want)}
	}
	return nil
}

// spent reads a tenant's ε spent on one node.
func (e *env) spent(base, tenant string) (float64, error) {
	var b struct {
		Spent float64 `json:"spent"`
	}
	err := e.call("GET", base+"/tenants/"+url.PathEscape(tenant)+"/budget", nil, nil, &b)
	return b.Spent, err
}

// stats reads a /stats document as loosely-typed JSON, so a field a
// later version drops reads as absent rather than failing the run.
func (e *env) stats(base string) (map[string]any, error) {
	var m map[string]any
	err := e.call("GET", base+"/stats", nil, nil, &m)
	return m, err
}

// field walks a /stats document; ok is false when the field is absent.
func field(m map[string]any, path ...string) (float64, bool) {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur = obj[p]
	}
	v, ok := cur.(float64)
	return v, ok
}

// tally counts operations attempted and failed for failed_ops_ratio.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

// add records one operation's outcome and reports whether it succeeded.
func (t *tally) add(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	n := t.failed.Add(1)
	var m *mismatch
	if errors.As(err, &m) {
		t.wrong.Add(1)
	}
	if n <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
	}
	return false
}
